"""Output checks for the benchmark.

Nothing here imports amplekit: every expected value is computed by the
benchmark's own code (closed forms for Hamming balls, brute force for small
classes), so a check never trusts the function whose output it judges.

Concepts and coordinate sets are int bitmasks; coordinate i (1-based) is bit
i-1, and in files the leftmost character is coordinate 1, as in amplekit.
"""
from __future__ import annotations

import hashlib
from collections import Counter, deque
from itertools import combinations
from math import comb


class CheckFailed(Exception):
    """An output that the benchmark rejects."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def phi(d: int, n: int) -> int:
    return sum(comb(n, i) for i in range(min(d, n) + 1))


def popcount(m: int) -> int:
    return m.bit_count()


def bits(m: int) -> list[int]:
    out = []
    while m:
        b = m & -m
        out.append(b)
        m ^= b
    return out


def to_str(c: int, n: int) -> str:
    return "".join("1" if c >> i & 1 else "0" for i in range(n))


def to_mask(s: str) -> int:
    require(set(s) <= {"0", "1"}, f"not a bitstring: {s!r}")
    return sum(1 << i for i, ch in enumerate(s) if ch == "1")


def ball(n: int, d: int) -> list[int]:
    """All subsets of 1..n of size at most d, ascending as ints."""
    out = []
    for k in range(d + 1):
        for sel in combinations(range(n), k):
            out.append(sum(1 << i for i in sel))
    return sorted(out)


def class_text(n: int, concepts) -> str:
    return f"n={n}\n" + "".join(to_str(c, n) + "\n" for c in sorted(concepts))


def parse_class(text: str) -> tuple[int, list[int]]:
    """(n, concepts in file order) of a class file."""
    n = None
    cs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            require(line.startswith("n="), "class file without header")
            n = int(line[2:])
            continue
        require(len(line) == n, f"concept {line!r} of wrong width")
        cs.append(to_mask(line))
    require(n is not None and cs, "empty class file")
    require(len(set(cs)) == len(cs), "duplicate concept")
    return n, cs


def read_class(path: str) -> tuple[int, list[int]]:
    with open(path, encoding="utf-8") as fh:
        return parse_class(fh.read())


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def key_values(out: str) -> dict:
    kv = {}
    for line in out.splitlines():
        k, sep, v = line.partition("=")
        require(bool(sep), f"unexpected line {line!r}")
        kv[k] = v
    return kv


# -- invariants, by brute force or closed form ----------------------------------

def invariants(n: int, concepts) -> dict:
    """What `amplekit check` prints, by brute force over all 2^n coordinate
    sets; meant for n <= 12.  Both complexes are downward closed, so a set is
    only tested when all its one-smaller subsets passed."""
    cs = list(concepts)
    sh = {0}
    st = {0}
    for k in range(1, n + 1):
        for sel in combinations(range(n), k):
            Y = sum(1 << i for i in sel)
            if any(Y ^ b not in sh for b in bits(Y)):
                continue
            if len({c & Y for c in cs}) == 1 << k:
                sh.add(Y)
                if all(Y ^ b in st for b in bits(Y)):
                    groups = Counter(c & ~Y for c in cs)
                    if max(groups.values()) == 1 << k:
                        st.add(Y)
    vc = max(popcount(Y) for Y in sh)
    return {"n": n, "size": len(cs), "vc_dim": vc, "shattered": len(sh),
            "strongly_shattered": len(st), "ample": int(len(sh) == len(cs)),
            "maximum": int(len(cs) == phi(vc, n))}


def ball_invariants(n: int, d: int) -> dict:
    """Closed forms for the Hamming ball of radius d: maximum, hence ample."""
    size = phi(d, n)
    return {"n": n, "size": size, "vc_dim": d, "shattered": size,
            "strongly_shattered": size, "ample": 1, "maximum": 1}


def check_check(out: str, inv: dict) -> None:
    kv = key_values(out)
    require(list(kv) == list(inv), f"check keys {list(kv)}")
    for k, v in inv.items():
        require(kv[k] == str(v), f"check {k}={kv[k]}, expected {v}")


def check_batch(out: str, rows: list[tuple[str, dict]]) -> None:
    lines = out.splitlines()
    require(lines[0] == "file,n,size,vc_dim,shattered,strongly_shattered,ample,maximum",
            "batch header")
    require(len(lines) == len(rows) + 1, "batch row count")
    for line, (name, inv) in zip(lines[1:], rows):
        ample = int(inv["ample"] and inv["strongly_shattered"] == inv["size"])
        want = [name, inv["n"], inv["size"], inv["vc_dim"], inv["shattered"],
                inv["strongly_shattered"], ample, inv["maximum"]]
        require(line == ",".join(str(v) for v in want), f"batch row {line!r}")


# -- representation maps of Hamming balls ---------------------------------------

def parse_repmap(text: str, n: int) -> dict:
    r = {}
    for line in text.splitlines():
        left, sep, right = line.partition(" -> ")
        require(bool(sep) and len(left) == n and len(right) == n, f"repmap line {line!r}")
        c = to_mask(left)
        require(c not in r, "repmap lists a concept twice")
        r[c] = to_mask(right)
    return r


def format_repmap(r: dict, n: int) -> str:
    return "".join(f"{to_str(c, n)} -> {to_str(r[c], n)}\n" for c in sorted(r))


def ball_repmap_report(r: dict, n: int, d: int) -> dict:
    """bijective / c1 / c2 of a map on the Hamming ball B(n,d).

    X(C) of a ball is the ball itself.  C1: the cube spanned by r(c) at c lies
    in the ball, i.e. |c ∪ r(c)| <= d.  C2: every cube of the ball, with tag t
    and support Y (|t ∪ Y| <= d), holds exactly one concept c with r(c) ∩ Y = ∅.
    """
    B = ball(n, d)
    if set(r) != set(B):
        return {"bijective": 0, "c1": 0, "c2": 0}

    def sinks(S, Y):
        t = S & ~Y
        return sum(1 for Z in _submasks(Y) if r[t | Z] & Y == 0)

    # r is total on B, so its image equals B exactly when it is a bijection
    return {"bijective": int(set(r.values()) == set(B)),
            "c1": int(all(popcount(c | r[c]) <= d for c in B)),
            "c2": int(all(sinks(S, Y) == 1 for S in B for Y in _submasks(S)))}


def _submasks(m: int):
    sub = m
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & m


def check_ball_repmap(out: str, n: int, d: int) -> None:
    rep = ball_repmap_report(parse_repmap(out, n), n, d)
    require(all(rep.values()), f"repmap build output fails {rep}")


def check_verify(out: str, expected: dict) -> None:
    """expected holds the lines whose value the benchmark knows (always
    `valid`, and the fields it computed itself)."""
    kv = key_values(out)
    require(list(kv) == ["r1", "r2", "r3", "r4", "bijective", "c1", "c2", "valid"],
            "verify keys")
    for k, v in expected.items():
        require(kv[k] == str(v), f"verify {k}={kv[k]}, expected {v}")


def check_tailmatch(out: str, n: int, d: int) -> None:
    """`tailmatch -x 1` on B(n,d): C^x = B(n-1,d-1) and C_x = B(n-1,d), so
    the tails are the C(n-1,d) sets of size d, each forbidding exactly its
    own all-ones label: a unique perfect matching of degree-one tails."""
    k = comb(n - 1, d)
    tails = [c for c in ball(n - 1, d) if popcount(c) == d]
    want = (f"coord=1\ntails={k}\nlabels={k}\nstatus=unique\n"
            "degree_one_tails=" + ",".join(to_str(t, n - 1) for t in tails) + "\n")
    require(out == want, "tailmatch output differs from the closed form")


# -- samples and compression ---------------------------------------------------

def format_sample(dom: int, labels: int) -> str:
    return ",".join(f"x{i + 1}={labels >> i & 1}" for i in range(dom.bit_length())
                    if dom >> i & 1)


def parse_sample(text: str) -> tuple[int, int]:
    dom = labels = 0
    for part in text.split(","):
        x, v = part[1:].split("=")
        dom |= 1 << (int(x) - 1)
        labels |= int(v) << (int(x) - 1)
    return dom, labels


def parse_coordset(out: str) -> int:
    text = out.strip()
    require(text.startswith("{") and text.endswith("}"), f"not a set: {text!r}")
    body = text[1:-1]
    return sum(1 << (int(x) - 1) for x in body.split(",")) if body else 0


def check_compress(out: str, dom: int, d: int) -> int:
    """α(s) ⊆ dom(s) and |α(s)| <= d; returns α(s)."""
    alpha = parse_coordset(out)
    require(alpha & ~dom == 0, "compressed set leaves the sample domain")
    require(popcount(alpha) <= d, "compressed set larger than the VC dimension")
    return alpha


def check_decompress(out: str, n: int, concepts: set, dom: int, labels: int) -> None:
    text = out.strip()
    require(len(text) == n, "decompressed concept of wrong width")
    c = to_mask(text)
    require(c in concepts, "decompressed concept outside the class")
    require(c & dom == labels, "decompressed concept inconsistent with the sample")


# -- one-inclusion graph: corners, isometry, cubes -------------------------------

def is_corner(S: set, c: int, n: int) -> bool:
    """c lies in a unique maximal cube of S.  Supports of cubes through c are
    downward closed, so that holds iff the union of all of them is one."""
    nbr = [1 << i for i in range(n) if c ^ (1 << i) in S]
    good = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for Y in frontier:
            for b in nbr:
                if b <= Y:   # grow by bits above Y's top bit only
                    continue
                Z = Y | b
                if all(Z ^ bb in good for bb in bits(Z)) and \
                        all((c & ~Z) | sub in S for sub in _submasks(Z)):
                    good.add(Z)
                    nxt.append(Z)
        frontier = nxt
    union = 0
    for Y in good:
        union |= Y
    return union in good


def check_corner_peeling(order: list[int], concepts, n: int) -> None:
    """Each concept is a corner of the level it is removed from, the last one
    listed first; checked one level at a time."""
    require(sorted(order) == sorted(concepts), "ordering is not a permutation")
    level = set(order)
    for i in range(len(order) - 1, 0, -1):
        require(is_corner(level, order[i], n), f"level {i + 1}: not a corner")
        level.discard(order[i])


def edge_count(S: set, n: int) -> int:
    return sum(1 for c in S for i in range(n) if not c >> i & 1 and c | 1 << i in S)


def _bfs(S: set, start: int, n: int) -> dict:
    dist = {start: 0}
    q = deque([start])
    while q:
        c = q.popleft()
        for i in range(n):
            e = c ^ (1 << i)
            if e in S and e not in dist:
                dist[e] = dist[c] + 1
                q.append(e)
    return dist


def is_isometric(S: set, n: int) -> bool:
    for c in S:
        dist = _bfs(S, c, n)
        if len(dist) != len(S) or any(k != popcount(c ^ e) for e, k in dist.items()):
            return False
    return True


def check_graph(out: str, concepts, n: int) -> None:
    S = set(concepts)
    corners = [c for c in sorted(S) if is_corner(S, c, n)]
    want = (f"vertices={len(S)}\nedges={edge_count(S, n)}\n"
            f"connected={int(len(_bfs(S, min(S), n)) == len(S))}\n"
            "corners=" + ",".join(to_str(c, n) for c in corners) + "\n")
    require(out == want, "graph output differs")


def all_cubes(S: set, n: int) -> set:
    """Every cube (tag, support) of S, grown one support coordinate at a time:
    (t, Y+b) is a cube iff (t, Y) and (t|b, Y) are."""
    level = {(c, 0) for c in S}
    faces = set(level)
    while level:
        nxt = set()
        for t, Y in level:
            for i in range(n):
                b = 1 << i
                if not (t | Y) & b and (t | b, Y) in level:
                    nxt.add((t, Y | b))
        faces |= nxt
        level = nxt
    return faces


def _facets(f):
    t, S = f
    for b in bits(S):
        yield (t, S ^ b)
        yield (t | b, S ^ b)


def check_collapse(out: str, concepts, n: int) -> None:
    """Replay the printed pairs on the cube complex: each is a free face with
    its unique coface one dimension up; one vertex, the survivor, remains."""
    lines = out.splitlines()
    require(lines and lines[-1].startswith("survivor "), "no survivor line")
    survivor = to_mask(lines[-1][len("survivor "):])
    faces = all_cubes(set(concepts), n)
    cofaces = {f: set() for f in faces}
    for f in faces:
        for g in _facets(f):
            cofaces[g].add(f)

    def face(s):
        t, _, sup = s.partition("/")
        return to_mask(t), to_mask(sup)

    for line in lines[:-1]:
        left, sep, right = line.partition(" -> ")
        require(bool(sep), f"collapse line {line!r}")
        q, p = face(left), face(right)
        require(q in faces and p in faces, "collapse pair not in the complex")
        require(cofaces[q] == {p}, "collapse face is not free")
        for f in (q, p):
            faces.discard(f)
            for g in _facets(f):
                cofaces[g].discard(f)
    require(faces == {(survivor, 0)}, "collapse does not end at the survivor")
