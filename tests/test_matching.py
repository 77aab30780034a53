import random
import sys
from collections import deque

from amplekit import matching

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
