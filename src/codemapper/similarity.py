"""Levenshtein distance and similarity.

The distance kernel is Myers' bit-vector algorithm (J. ACM 46(3), 1999) in
Hyyrö's edit-distance form (Nordic J. Computing 10(1), 2003). Python ints
serve as bit-vectors of arbitrary width, so one pass over the shorter string
costs O(len(shorter)) big-int operations instead of a full DP table.
"""


def _kernel(a: str, b: str) -> int:
    """Bit-parallel edit distance; the longer string is the bit pattern."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # peq[c] has bit i set where a[i] == c.
    peq: dict[str, int] = {}
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    full = bit - 1
    high = bit >> 1
    # vp/vn: positive/negative vertical deltas of the current DP column;
    # dist tracks its last cell, D[len(a)][j].
    vp, vn, dist = full, 0, len(a)
    get = peq.get
    for c in b:
        eq = get(c, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & full
        hp = vn | (full ^ (d0 | vp))
        hn = vp & d0
        if hp & high:
            dist += 1
        elif hn & high:
            dist -= 1
        x = (hp << 1) | 1
        vn = x & d0
        vp = ((hn << 1) | (full ^ (d0 | x))) & full
    return dist


def levenshtein_distance(a: str, b: str) -> int:
    if a == b:
        return 0
    # Stripping a common prefix/suffix preserves the distance and narrows
    # the bit-vectors on context-heavy inputs.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    lo_max = min(hi_a, hi_b)
    while lo < lo_max and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    return _kernel(a[lo:hi_a], b[lo:hi_b])


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - distance / max(len); two empty strings are fully similar."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))
