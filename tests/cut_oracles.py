"""Slow references for the cut enumeration, used only by the tests."""


def bron_kerbosch_covers(dg) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The minimal vertex covers of the doubled graph as (left, right) 0/1
    tuples per recipe: the complements of the maximal independent sets,
    enumerated as maximal cliques of the complement graph (Bron-Kerbosch
    with pivoting, bitmask sets: bit i is the left copy of recipe i, bit
    m + i its right copy).  Any number of recipes works.
    """
    m = dg.size
    nv = 2 * m
    adj = [0] * nv
    for i, j in dg.arcs:
        adj[i] |= 1 << (m + j)
        adj[m + j] |= 1 << i
    full = (1 << nv) - 1
    comp = [(~adj[v]) & full & ~(1 << v) for v in range(nv)]
    out = set()

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            cover = full & ~r
            out.add(
                (
                    tuple(cover >> i & 1 for i in range(m)),
                    tuple(cover >> (m + i) & 1 for i in range(m)),
                )
            )
            return
        pux = p | x
        pivot = max(
            (u for u in range(nv) if pux >> u & 1), key=lambda u: (p & comp[u]).bit_count()
        )
        cand = p & ~comp[pivot]
        for v in range(nv):
            if cand >> v & 1:
                bit = 1 << v
                expand(r | bit, p & comp[v], x & comp[v])
                p &= ~bit
                x |= bit

    expand(0, full, 0)
    return out
