import random
import sys
from collections import deque

from amplekit import generate, graph, matching
from amplekit.core import bit, bits_of

INF = float("inf")


def hopcroft_karp_recursive(adj):
    """Hopcroft-Karp with the augmenting search written as a recursion."""
    match_l, match_r, dist = {}, {}, {}

    def bfs():
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

    def dfs(u):
        for v in adj[u]:
            w = match_r.get(v)
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in adj:
            if u not in match_l:
                dfs(u)
    return match_l


def long_path_instance(k):
    """Left l1..lk are listed first and each takes r(i-1) in the first phase;
    l0 then needs the augmenting path l0 r0 l1 r1 ... lk rk (2k+1 edges)."""
    adj = {("l", i): [("r", i - 1), ("r", i)] for i in range(1, k + 1)}
    adj[("l", 0)] = [("r", 0)]
    return adj


def test_long_augmenting_path_under_low_recursion_limit():
    k = 150
    adj = long_path_instance(k)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        m = matching.hopcroft_karp(adj)
    finally:
        sys.setrecursionlimit(limit)
    assert m == {("l", i): ("r", i) for i in range(k + 1)}


def test_agrees_with_recursive_version():
    rng = random.Random(7)
    for _ in range(300):
        nl, nr = rng.randrange(1, 14), rng.randrange(1, 14)
        p = rng.choice((0.1, 0.25, 0.5))
        adj = {u: [v for v in range(nr) if rng.random() < p] for u in range(nl)}
        for u in adj:
            rng.shuffle(adj[u])
        got = matching.hopcroft_karp(adj)
        want = hopcroft_karp_recursive(adj)
        assert list(got.items()) == list(want.items())
    adj = long_path_instance(40)
    assert list(matching.hopcroft_karp(adj).items()) == \
        list(hopcroft_karp_recursive(adj).items())


def alternating_cycle_former(adj, matching_):
    """find_alternating_cycle as it was, with its own DFS walk."""
    succ = {u: set() for u in adj}
    match_r = {v: u for u, v in matching_.items()}
    for u in adj:
        for v in adj[u]:
            if matching_.get(u) != v and v in match_r:
                succ[u].add(match_r[v])
    color = {}

    def walk(u):
        stack = [(u, iter(succ[u]))]
        color[u] = 1
        path = [u]
        while stack:
            node, it = stack[-1]
            advanced = False
            for w in it:
                if color.get(w) == 1:
                    return path[path.index(w):]
                if w not in color:
                    color[w] = 1
                    path.append(w)
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()
        return None

    for u in adj:
        if u not in color:
            cyc = walk(u)
            if cyc is not None:
                return cyc
    return None


def orientation_cycle_former(C, o):
    """The cycle walk over an out-map that `repmap.uso_to_peeling` used."""
    color = {}
    for start in C:
        if start in color:
            continue
        stack = [(start, iter(bits_of(o[start])))]
        color[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for b in it:
                w = node ^ b
                if color.get(w) == 1:
                    return path[path.index(w):]
                if w not in color:
                    color[w] = 1
                    path.append(w)
                    stack.append((w, iter(bits_of(o[w]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()
    return None


def test_find_cycle_matches_former_walks():
    rng = random.Random(23)
    found = [0, 0]
    for _ in range(300):
        k = rng.randrange(1, 12)
        adj = {u: [v for v in range(k) if rng.random() < 0.3] for u in range(k)}
        for u in adj:
            adj[u].append(u)        # a perfect matching u -> u
            rng.shuffle(adj[u])
        m = {u: u for u in adj}
        want = alternating_cycle_former(adj, m)
        assert matching.find_alternating_cycle(adj, m) == want
        found[want is not None] += 1
    for _ in range(200):
        n = rng.randrange(1, 6)
        C = generate.random_ample(n, rng.randrange(1, (1 << n) + 1), rng.randrange(100))
        # orient each edge of G(C) at random
        o = dict.fromkeys(C, 0)
        for c, d, x in graph.edges(C):
            o[rng.choice((c, d))] |= bit(x)
        want = orientation_cycle_former(C, o)
        succ = {c: [c ^ b for b in bits_of(o[c])] for c in C}
        assert matching.find_cycle(C, succ) == want
        found[want is not None] += 1
    assert all(found)
