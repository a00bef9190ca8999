"""Target selection: context assembly, scoring, tie-breaking."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codemapper import regions, selector, similarity
from codemapper.candidates import Candidate, Origin
from codemapper.diffparse import Hunk
from codemapper.regions import DELETED, extract_text, make_range
from codemapper.search import search_text
from codemapper.selector import SelectionConfig, _Flanks, select_target
from codemapper.similarity import levenshtein_similarity


def text(lines):
    return "".join(line + "\n" for line in lines)


class TestAddContext:
    """Widening a region by unchanged lines, through the flank helper and
    through the scores `select_target` gives."""

    FILE = text([f"l{i}" for i in range(1, 11)])

    def test_zero_context_is_region_text(self, monkeypatch):
        def no_flanks(*args):
            raise AssertionError("context 0 builds no flanks")

        monkeypatch.setattr(selector, "_Flanks", no_flanks)
        cand = diff_cand(make_range(5, 1, 5, 2))
        config = SelectionConfig(context_lines=0)
        ranked = select_target(make_range(2, 1, 2, 2), self.FILE, [cand], config, (), self.FILE)
        assert ranked[0].similarity == levenshtein_similarity("l2", "l5")

    def test_file_top_truncates(self):
        # The empty piece after the final newline is not a line.
        assert _Flanks(self.FILE, (), 15).around(1, 1) == "\n".join(
            f"l{i}" for i in range(2, 11)
        )

    def test_changed_lines_are_skipped(self):
        # two changed lines directly above the region
        flanks = _Flanks(self.FILE, [(3, 4)], 2)
        assert flanks.around(5, 5, "x") == "l1\nl2\nx\nl6\nl7"

    def test_target_side_uses_target_blocks(self):
        # Source lines 3-4 became target lines 3-5: the source skips 3-4,
        # the candidate skips 3-5.
        hunks = (Hunk(3, 4, 3, 5),)
        cand = diff_cand(make_range(6, 1, 6, 2))
        config = SelectionConfig(context_lines=2)
        ranked = select_target(
            make_range(6, 1, 6, 2), self.FILE, [cand], config, hunks, self.FILE
        )
        assert ranked[0].similarity == levenshtein_similarity(
            "l2\nl5\nl6\nl7\nl8", "l1\nl2\nl6\nl7\nl8"
        )

    def test_partial_line_region(self):
        source = text(["a", "b", "c"])
        cand = diff_cand(make_range(5, 2, 5, 2))
        config = SelectionConfig(context_lines=1)
        ranked = select_target(make_range(2, 1, 2, 1), source, [cand], config, (), self.FILE)
        assert ranked[0].similarity == levenshtein_similarity("a\nb\nc", "l4\n5\nl6")


def diff_cand(rng, similarity=None):
    return Candidate(rng, Origin.DIFF, similarity)


class TestSelectTarget:
    SOURCE = text(["a", "b", "region text", "c", "d"])

    def run(self, candidates, target_text, config=None, hunks=()):
        return select_target(
            make_range(3, 1, 3, 11),
            self.SOURCE,
            candidates,
            config or SelectionConfig(),
            hunks,
            target_text,
        )

    def test_empty_candidates_mean_deleted(self):
        assert self.run([], self.SOURCE) == []

    def test_single_candidate_wins_regardless_of_score(self):
        target_text = text(["a", "b", "entirely different", "c", "d"])
        cand = Candidate(make_range(3, 1, 3, 18), Origin.DIFF)
        ranked = self.run([cand], target_text)
        assert ranked[0].range == cand.range
        assert ranked[0].similarity is not None

    def test_priority_breaks_exact_ties(self):
        # Offset-shifted diff candidate and identical search candidate both
        # score 1.0; the diff one wins by origin priority.
        target_text = text(["inserted", "a", "b", "region text", "c", "d"])
        hunks = (Hunk(1, 0, 1, 1),)
        rng = make_range(4, 1, 4, 11)
        cands = [
            Candidate(rng, Origin.SEARCH),
            Candidate(rng, Origin.DIFF),
        ]
        ranked = self.run(cands, target_text, hunks=hunks)
        assert ranked[0].origin is Origin.DIFF
        assert ranked[0].similarity == 1.0

    def test_movement_scored_without_context(self):
        # The moved text matches exactly, while its new context differs; the
        # movement candidate must still score 1.0 and win.
        target_text = text(["x", "y", "other stuff", "region text", "w"])
        move = Candidate(make_range(4, 1, 4, 11), Origin.MOVEMENT)
        diff = Candidate(make_range(3, 1, 3, 11), Origin.DIFF)
        ranked = self.run([move, diff], target_text)
        assert ranked[0].origin is Origin.MOVEMENT
        assert ranked[0].similarity == 1.0

    def test_deleted_loses_ties_to_real_candidates(self):
        target_text = text(["a", "b", "region text", "c", "d"])
        real = Candidate(make_range(3, 1, 3, 11), Origin.DIFF)
        gone = Candidate(DELETED, Origin.DIFF, source_hunk=Hunk(3, 3, 3, 2))
        ranked = self.run([real, gone], target_text)
        assert ranked[0].range == real.range

    def test_selection_invariant_under_permutation(self):
        target_text = text(["a", "b", "region texx", "c", "d", "region text"])
        cands = [
            diff_cand(make_range(3, 1, 3, 11)),
            Candidate(make_range(6, 1, 6, 11), Origin.SEARCH),
            Candidate(DELETED, Origin.DIFF, source_hunk=Hunk(3, 3, 3, 2)),
        ]
        rng = random.Random(5)
        baseline = None
        for _ in range(10):
            shuffled = list(cands)
            rng.shuffle(shuffled)
            key = [repr(c.range) for c in self.run(shuffled, target_text)]
            if baseline is None:
                baseline = key
            assert key == baseline

    def test_scores_lie_in_unit_interval(self):
        target_text = text(["a", "zzz", "region text", "c"])
        cands = [
            diff_cand(make_range(2, 1, 2, 3)),
            diff_cand(make_range(3, 1, 3, 11)),
        ]
        ranked = self.run(cands, target_text)
        assert all(0.0 <= c.similarity <= 1.0 for c in ranked)

    def test_exact_context_match_scores_one(self):
        target_text = self.SOURCE
        cand = diff_cand(make_range(3, 1, 3, 11))
        ranked = self.run([cand], target_text)
        assert ranked[0].similarity == 1.0

    def test_rank_order_is_monotone_in_score(self):
        target_text = text(["a", "b", "region texq", "c", "d", "unrelated junk"])
        cands = [
            diff_cand(make_range(3, 1, 3, 11)),
            diff_cand(make_range(6, 1, 6, 14)),
        ]
        ranked = self.run(cands, target_text)
        scores = [c.similarity for c in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_selection_invariant_under_monotone_score_transform(self):
        # Ranking depends only on the score ORDER: rescaling every score with
        # a strictly increasing function never changes the chosen candidate.
        from codemapper.selector import _rank_key

        cands = [
            diff_cand(make_range(3, 1, 3, 11), similarity=0.91),
            diff_cand(make_range(6, 1, 6, 14), similarity=0.35),
            Candidate(make_range(1, 1, 1, 1), Origin.SEARCH, 0.66),
        ]
        baseline = min(cands, key=_rank_key).range
        for transform in (lambda s: s**3, lambda s: 0.5 * s + 0.1, lambda s: s / 7):
            rescored = [
                Candidate(c.range, c.origin, transform(c.similarity)) for c in cands
            ]
            assert min(rescored, key=_rank_key).range == baseline


class TestDeletedScoring:
    def test_true_deletion_beats_nothing(self):
        source = text(["a", "b", "gone", "c", "d"])
        target_text = text(["a", "b", "c", "d"])
        hunks = (Hunk(3, 3, 3, 2),)
        gone = Candidate(DELETED, Origin.DIFF, source_hunk=hunks[0])
        ranked = select_target(
            make_range(3, 1, 3, 4), source, [gone], SelectionConfig(), hunks, target_text
        )
        assert ranked[0].range is DELETED
        assert ranked[0].similarity == 1.0  # surroundings match exactly

    def test_context_off_zeroes_deleted_score(self):
        source = text(["a", "b", "gone", "c", "d"])
        target_text = text(["a", "b", "c", "d"])
        hunks = (Hunk(3, 3, 3, 2),)
        gone = Candidate(DELETED, Origin.DIFF, source_hunk=hunks[0])
        config = SelectionConfig(context_lines=0)
        ranked = select_target(
            make_range(3, 1, 3, 4), source, [gone], config, hunks, target_text
        )
        assert ranked[0].range is DELETED  # still the only candidate
        assert ranked[0].similarity == 0.0


class TestNegativeContext:
    def test_config_rejects_negative_context(self):
        with pytest.raises(ValueError):
            SelectionConfig(context_lines=-1)

    def test_zero_context_keeps_the_region_over_a_deletion(self):
        # Below zero both flank strings would be empty and the deletion
        # would score 1.0; at zero it scores 0.0 and the edited line wins.
        source = text(["a", "gone x", "b"])
        target_text = text(["a", "gone y", "b"])
        hunk = Hunk(2, 2, 2, 2)
        cands = [
            diff_cand(make_range(2, 1, 2, 6)),
            Candidate(DELETED, Origin.DIFF, source_hunk=hunk),
        ]
        config = SelectionConfig(context_lines=0)
        ranked = select_target(
            make_range(2, 1, 2, 6), source, cands, config, (hunk,), target_text
        )
        assert ranked[0].range == cands[0].range
        assert [c.similarity for c in ranked] == [levenshtein_similarity("gone x", "gone y"), 0.0]


# -- oracle: context assembly ----------------------------------------------------


def _brute_context(file_text, first, last, changed, n, middle):
    """Scan outward from the span, skip changed lines, stop at n lines or at
    the file edge; the empty piece after a final newline is not a line."""
    lines = file_text.split("\n")
    if file_text.endswith("\n"):
        lines.pop()
    above = [lines[k - 1] for k in range(first - 1, 0, -1) if k not in changed][:n]
    below = [lines[k - 1] for k in range(last + 1, len(lines) + 1) if k not in changed][:n]
    return "\n".join(above[::-1] + middle + below)


LINE = st.text(alphabet="ab ", min_size=1, max_size=3).filter(lambda s: s.strip())


@st.composite
def _ranges(draw, lines):
    l1, l2 = sorted(draw(st.integers(1, len(lines))) for _ in range(2))
    c1 = draw(st.integers(1, len(lines[l1 - 1])))
    c2 = draw(st.integers(1, len(lines[l2 - 1])))
    if l1 == l2:
        c1, c2 = sorted((c1, c2))
    return make_range(l1, c1, l2, c2)


@st.composite
def _hunks(draw, source_count, target_count):
    hunks = []
    s, t = 1, 1
    for _ in range(draw(st.integers(0, 4))):
        s += draw(st.integers(0, 2))
        t += draw(st.integers(0, 2))
        a, b = draw(st.sampled_from([(a, b) for a in range(4) for b in range(4) if a or b]))
        if s + a - 1 > source_count or t + b - 1 > target_count:
            break
        hunks.append(Hunk(s, s + a - 1, t, t + b - 1))
        s, t = s + a, t + b
    return tuple(hunks)


@st.composite
def _scoring_case(draw):
    source_lines = draw(st.lists(LINE, min_size=1, max_size=12))
    target_lines = draw(st.lists(LINE, min_size=1, max_size=12))
    source = "\n".join(source_lines) + draw(st.sampled_from(["", "\n"]))
    target = "\n".join(target_lines) + draw(st.sampled_from(["", "\n"]))
    hunks = draw(_hunks(len(source_lines), len(target_lines)))
    cands = [
        Candidate(draw(_ranges(target_lines)), Origin.DIFF)
        for _ in range(draw(st.integers(1, 3)))
    ]
    cands.append(Candidate(draw(_ranges(target_lines)), Origin.MOVEMENT))
    site = draw(st.sampled_from(hunks + (None,)))
    cands.append(Candidate(DELETED, Origin.DIFF, source_hunk=site))
    n = draw(st.sampled_from([0, 1, 2, 15]))
    return draw(_ranges(source_lines)), source, target, hunks, cands, n


@given(_scoring_case())
def test_similarities_match_brute_force_context(case):
    source_range, source, target, hunks, cands, n = case
    source_changed = {k for h in hunks for k in range(h.source_start, h.source_end + 1)}
    target_changed = {k for h in hunks for k in range(h.target_start, h.target_end + 1)}
    plain = extract_text(source, source_range)
    src_with_ctx = _brute_context(
        source, source_range.l1, source_range.l2, source_changed, n, [plain]
    )
    src_ctx_only = _brute_context(source, source_range.l1, source_range.l2, source_changed, n, [])

    ranked = select_target(
        source_range, source, cands, SelectionConfig(context_lines=n), hunks, target
    )
    assert len(ranked) == len(cands)
    for cand in ranked:
        if cand.is_deleted:
            hunk = cand.source_hunk
            if n == 0:
                expected = 0.0
            else:
                site = ""
                if hunk is not None:
                    first, last = hunk.target_start, hunk.target_end
                    site = _brute_context(target, first, last, target_changed, n, [])
                expected = levenshtein_similarity(src_ctx_only, site)
        elif cand.origin is Origin.MOVEMENT:
            expected = levenshtein_similarity(plain, extract_text(target, cand.range))
        else:
            rng = cand.range
            cand_ctx = _brute_context(
                target, rng.l1, rng.l2, target_changed, n, [extract_text(target, rng)]
            )
            expected = levenshtein_similarity(src_with_ctx, cand_ctx)
        assert cand.similarity == expected


def test_flooded_region_scores_each_distinct_pair_once(monkeypatch):
    """A one-character region with 5,000+ occurrences at context 15: the
    flanks come from the line index, not from one line_text call per walked
    line, and the kernel runs at most once per distinct scoring pair. The
    lines repeat with period 26, so most candidates share their context."""
    lines = [f"{chr(97 + i % 26)}(" for i in range(5200)]
    target = text(lines)
    source = text(lines[:2000] + ["deleted"] + lines[2000:])
    hunks = (Hunk(2001, 2001, 2001, 2000),)
    source_range = make_range(2100, 2, 2100, 2)
    cands = search_text("(", target)
    assert len(cands) >= 5000

    line_text_calls, pairs, kernel_calls = [], [], []
    line_text, kernel = regions.line_text, similarity._kernel

    def counting_line_text(*args):
        line_text_calls.append(args)
        return line_text(*args)

    def recording_similarity(a, b):
        pairs.append((a, b))
        return levenshtein_similarity(a, b)

    def counting_kernel(a, b):
        kernel_calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(regions, "line_text", counting_line_text)
    monkeypatch.setattr(selector, "line_text", counting_line_text, raising=False)
    monkeypatch.setattr(selector, "levenshtein_similarity", recording_similarity)
    monkeypatch.setattr(similarity, "_kernel", counting_kernel)
    ranked = select_target(
        source_range, source, cands, SelectionConfig(context_lines=15), hunks, target
    )
    assert len(line_text_calls) < len(cands)
    assert len(pairs) == len(set(pairs)) < 100
    assert 0 < len(kernel_calls) <= len(pairs)

    src_with_ctx = _brute_context(source, 2100, 2100, {2001}, 15, ["("])
    for cand in random.Random(7).sample(ranked, 40) + ranked[:3] + ranked[-3:]:
        rng = cand.range
        cand_ctx = _brute_context(target, rng.l1, rng.l2, set(), 15, ["("])
        assert cand.similarity == levenshtein_similarity(src_with_ctx, cand_ctx)
