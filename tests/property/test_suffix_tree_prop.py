"""Property tests: the suffix tree's repeated-substring enumeration exactly
matches a naive O(n^2) scanner on arbitrary integer sequences."""

from hypothesis import given, settings, strategies as st

from repro.outliner.suffix_tree import SuffixTree, naive_repeated_substrings


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=0,
                max_size=80))
def test_matches_naive_scanner(seq):
    tree = SuffixTree(seq)
    got = {
        rs.substring(tree.seq): sorted(rs.starts)
        for rs in tree.repeated_substrings(min_len=1, max_len=100)
    }
    want = {
        key: sorted(starts)
        for key, starts in naive_repeated_substrings(
            seq, min_len=1, max_len=100).items()
    }
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2,
                max_size=60))
def test_occurrences_are_real(seq):
    tree = SuffixTree(seq)
    for rs in tree.repeated_substrings(min_len=2):
        sub = rs.substring(tree.seq)
        for start in rs.starts:
            assert tuple(seq[start:start + rs.length]) == sub


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=0,
                max_size=60))
def test_min_len_respected(seq):
    tree = SuffixTree(seq)
    for rs in tree.repeated_substrings(min_len=3, max_len=10):
        assert 3 <= rs.length <= 10


def test_highly_repetitive_input():
    seq = [1] * 200
    tree = SuffixTree(seq)
    subs = list(tree.repeated_substrings(min_len=2, max_len=300))
    # every length 2..199 is a repeated substring of 1^200
    lengths = {rs.length for rs in subs}
    assert lengths == set(range(1, 200)) - {1} | ({1} & lengths)


def test_no_repeats_in_distinct_sequence():
    seq = list(range(100))
    tree = SuffixTree(seq)
    assert list(tree.repeated_substrings(min_len=1)) == []


# -- the leaf-range walker ----------------------------------------------------

def _live_history(segments, alive):
    """An outline-index-shaped history: every segment is appended with its
    own unique sentinel, dead ones flagged 0 in the live mask.  Returns
    ``(tree, live, fresh_seq, fresh_pos)`` where *fresh_seq* concatenates
    the live segments the same way and *fresh_pos* maps history positions
    of live segments to positions in it."""
    tree = SuffixTree()
    live = bytearray()
    fresh_seq, fresh_pos = [], {}
    sentinel = -2
    for keep, seg in zip(alive, segments):
        ids = list(seg) + [sentinel]
        sentinel -= 1
        if keep:
            for k in range(len(ids)):
                fresh_pos[len(tree.seq) + k] = len(fresh_seq) + k
            fresh_seq.extend(ids)
        tree.extend(ids)
        live.extend((b"\x01" if keep else b"\x00") * len(ids))
    return tree, live, fresh_seq, fresh_pos


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                         max_size=12), min_size=1, max_size=12),
       st.data())
def test_live_walker_matches_fresh_tree(segments, data):
    """Starts included: the live query over a partly dead history is the
    fresh tree's enumeration over the live segments alone."""
    mask = data.draw(st.sampled_from(["all-live", "all-dead", "random"]))
    if mask == "random":
        alive = [data.draw(st.booleans()) for _ in segments]
    else:
        alive = [mask == "all-live"] * len(segments)
    min_len = data.draw(st.integers(min_value=1, max_value=4))
    max_len = data.draw(st.integers(min_value=min_len, max_value=14))
    tree, live, fresh_seq, fresh_pos = _live_history(segments, alive)

    got = sorted((rs.length, [fresh_pos[s] for s in rs.starts])
                 for rs in tree.live_repeated_substrings(live, min_len,
                                                         max_len))
    fresh = SuffixTree()
    fresh.extend(fresh_seq)
    want = sorted((rs.length, rs.starts)
                  for rs in fresh.repeated_substrings(min_len, max_len))
    assert got == want
    if mask == "all-dead":
        assert got == []


def _yielded(tree, min_len, max_len):
    return sorted((rs.length, rs.starts)
                  for rs in tree.repeated_substrings(min_len, max_len))


def test_depth_window_bounds_are_inclusive():
    # "1 2 3" repeats at 0 and 4; "2 3" at 1 and 5; "3" at 2 and 6.
    tree = SuffixTree([1, 2, 3, 9, 1, 2, 3, 8])
    assert _yielded(tree, 3, 3) == [(3, [0, 4])]  # depth == max_len
    assert _yielded(tree, 2, 3) == [(2, [1, 5]), (3, [0, 4])]
    assert _yielded(tree, 4, 10) == []  # the repeat is min_len - 1 long
    assert _yielded(tree, 1, 2) == [(1, [2, 6]), (2, [1, 5])]
    live = b"\x01" * len(tree.seq)
    assert sorted((rs.length, rs.starts) for rs in
                  tree.live_repeated_substrings(live, 3, 3)) == [(3, [0, 4])]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=65,
                max_size=90),
       st.lists(st.integers(min_value=1, max_value=3), min_size=0,
                max_size=10))
def test_long_repeats_match_naive_scanner(block, gap):
    """Repeats longer than the scanner's default ``max_len`` of 64."""
    seq = block + [7] + gap + block + [8]
    tree = SuffixTree(seq)
    got = {rs.substring(tree.seq): rs.starts
           for rs in tree.repeated_substrings(min_len=2, max_len=2048)}
    want = {key: sorted(starts) for key, starts in
            naive_repeated_substrings(seq, min_len=2, max_len=2048).items()}
    assert max(len(key) for key in want) >= len(block) > 64
    assert got == want
