"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line per
criterion. Every tolerance is pinned here; nothing is deferred.
"""

import random
import time

import pytest

from codemapper.candidates import classify_overlap, extract_diff_candidates
from codemapper.cli import main as cli_main
from codemapper.diffparse import Hunk, parse_word_diff
from codemapper.evaluation import (
    ablation_matrix,
    char_distance,
    context_sweep,
    evaluate,
    load_dataset,
    overlap_metrics,
)
from codemapper.fixtures import build_corpus
from codemapper.gitio import Algorithm, GitGateway
from codemapper.regions import (
    AbsInterval,
    Region,
    extract_text,
    make_range,
    range_of_interval,
)
from codemapper.similarity import levenshtein_similarity

MYERS = (Algorithm.MYERS,)

FIGURE_CASES = {
    "moved_function": "exact",
    "attribute_in_modified_line": "exact",
    "token_refined": "exact",
    "token_found_by_search": "exact",
    "swapped_lines": "exact",
    "suppression_deleted": "correct_deletion",
}


def report_line(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    dest = tmp_path_factory.mktemp("acceptance-corpus")
    started = time.perf_counter()
    build_corpus(dest)
    records = load_dataset(dest / "dataset.jsonl")
    return {
        "dest": dest,
        "records": records,
        "build_s": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def full_report(corpus):
    return evaluate(corpus["records"], base_dir=corpus["dest"])


def test_criterion_1_figure_fixture_suite(corpus, full_report):
    """Scripted repos for every worked scenario map exactly, in under 10s."""
    started = time.perf_counter()
    figure_records = [
        r for r in corpus["records"] if r.name in FIGURE_CASES
    ]
    assert len(figure_records) == len(FIGURE_CASES)
    report = evaluate(figure_records, base_dir=corpus["dest"])
    elapsed = corpus["build_s"] + (time.perf_counter() - started)
    outcomes = {
        res.record.name: res.outcome.kind.value if res.outcome else res.error
        for res in report.results
    }
    ok = outcomes == FIGURE_CASES and elapsed < 10.0
    report_line(
        "1 fixture-figure suite",
        ok,
        f"{sum(1 for n, k in outcomes.items() if FIGURE_CASES[n] == k)}/6 exact, "
        f"{elapsed:.2f}s",
    )
    assert outcomes == FIGURE_CASES
    assert elapsed < 10.0


def test_criterion_2_metrics_oracle():
    """Worked char-distance example plus 1,000 random pairs vs a
    character-set intersection oracle at 1e-12."""
    text = "".join(f"row {i:05d} abcdefghijklmnopqrstuvwxyz\n" for i in range(80))

    def region(iv):
        return Region("tc", "f", range_of_interval(text, iv))

    worked = char_distance(
        region(AbsInterval(20, 55)), region(AbsInterval(18, 63)), text
    )
    assert worked == 10

    rng = random.Random(99)
    checked = 0
    worst = 0.0
    while checked < 1000:
        a0 = rng.randrange(0, len(text) - 2)
        a1 = rng.randrange(a0 + 1, min(a0 + 120, len(text)))
        b0 = rng.randrange(0, len(text) - 2)
        b1 = rng.randrange(b0 + 1, min(b0 + 120, len(text)))
        try:
            predicted, expected = region(AbsInterval(a0, a1)), region(AbsInterval(b0, b1))
        except Exception:
            continue  # endpoint on newline; draw again
        recall, precision, f1 = overlap_metrics(predicted, expected, text)
        common = len(set(range(a0, a1)) & set(range(b0, b1)))
        want_r = common / (b1 - b0) if common else 0.0
        want_p = common / (a1 - a0) if common else 0.0
        want_f = (2 * want_r * want_p / (want_r + want_p)) if common else 0.0
        worst = max(
            worst, abs(recall - want_r), abs(precision - want_p), abs(f1 - want_f)
        )
        checked += 1
    ok = worst <= 1e-12
    report_line("2 metrics oracle", ok, f"1000 pairs, max error {worst:.2e}")
    assert ok


def test_criterion_3_classification_totality():
    """Exhaustive enumeration over lines in [1,12]: exactly one relation per
    combination; the five predicates are exclusive and exhaustive."""
    predicates = {
        "fully_covered": lambda hs, he, r1, r2: hs <= r1 and he >= r2,
        "top": lambda hs, he, r1, r2: hs <= r1 <= he < r2,
        "bottom": lambda hs, he, r1, r2: r1 < hs <= r2 <= he,
        "middle": lambda hs, he, r1, r2: r1 < hs and he < r2,
    }
    combos = violations = 0
    for hs in range(1, 13):
        for he in range(hs - 1, 13):  # he = hs - 1 encodes an empty block
            for r1 in range(1, 13):
                for r2 in range(r1, 13):
                    combos += 1
                    holding = [n for n, p in predicates.items() if p(hs, he, r1, r2)]
                    kind = classify_overlap(
                        Hunk(hs, he, 1, 1), make_range(r1, 1, r2, 1)
                    ).value
                    expected = holding[0] if holding else "disjoint"
                    if len(holding) > 1 or kind != expected:
                        violations += 1
    ok = violations == 0
    report_line("3 classification totality", ok, f"{combos} combinations, {violations} violations")
    assert violations == 0


def test_criterion_4_offset_accounting_oracle(tmp_path):
    """500 random whole-line edit scripts around a marked region: the diff
    pipeline returns a candidate whose text equals the marked text, always."""
    gateway = GitGateway(tmp_path)
    rng = random.Random(2024)
    failures = 0
    for _ in range(500):
        size = rng.randint(8, 24)
        lines = [f"ln{i}-{rng.randrange(1000)}" for i in range(size)]
        r1 = rng.randint(3, size - 3)
        r2 = min(size - 2, r1 + rng.randint(0, 3))
        region = make_range(r1, 1, r2, len(lines[r2 - 1]))
        marked = lines[r1 - 1 : r2]

        target_lines = list(lines)
        first = r1  # current first line of the tracked block
        for _ in range(rng.randint(1, 6)):
            last = first + (r2 - r1)
            above = rng.random() < 0.5
            insert = rng.random() < 0.6
            if above and first > 1:
                where = rng.randint(0, first - 2)
            elif last < len(target_lines):
                where = rng.randint(last, len(target_lines))
                above = False
            else:
                continue
            if insert:
                target_lines.insert(where, f"ins-{rng.randrange(1000)}")
                if above:
                    first += 1
            elif where < len(target_lines) and (where < first - 1 or where >= last):
                del target_lines[where]
                if above:
                    first -= 1

        source = "".join(l + "\n" for l in lines)
        target = "".join(l + "\n" for l in target_lines)
        reports = gateway.diff_texts(source, target, algorithms=MYERS)
        parsed = tuple(tuple(parse_word_diff(r)) for r in reports)
        # Unrefined, so the check covers the offset accounting alone.
        candidates = extract_diff_candidates(
            parsed, region, source, target, refine=False
        )
        texts = [
            extract_text(target, c.range) for c in candidates if not c.is_deleted
        ]
        if "\n".join(marked) not in texts:
            failures += 1
    ok = failures == 0
    report_line("4 offset-accounting oracle", ok, f"500 scripts, {failures} failures")
    assert failures == 0


def _random_token(rng, lo=2, hi=8):
    return "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(lo, hi))
    )


def _refinement_case(rng):
    """One single-line token substitution with a token-aligned source region.

    Replacements mostly share a prefix or suffix with the replaced token,
    like real renames and value tweaks; region endpoints snap to token
    boundaries (mid-token regions are meaningless for this task).
    """
    tokens = [_random_token(rng, 3, 8) for _ in range(rng.randint(3, 7))]
    which = rng.randrange(len(tokens))
    old = tokens[which]
    new = old
    while new == old:
        style = rng.random()
        if style < 0.40:  # rename keeping a stem
            new = old[: rng.randint(2, len(old))] + _random_token(rng, 1, 4)
        elif style < 0.70:  # rename keeping an ending
            new = _random_token(rng, 1, 4) + old[rng.randint(0, len(old) - 2) :]
        elif style < 0.95:  # in-place character tweak
            i = rng.randrange(len(old))
            new = old[:i] + rng.choice("abcdefghijklmnopqrstuvwxyz") + old[i + 1 :]
        else:  # wholesale replacement
            new = _random_token(rng)
    source_line = " ".join(tokens)
    target_tokens = list(tokens)
    target_tokens[which] = new
    target_line = " ".join(target_tokens)

    first = rng.randrange(len(tokens))
    last = rng.randint(first, len(tokens) - 1)
    c1 = sum(len(t) + 1 for t in tokens[:first]) + 1
    c2 = sum(len(t) + 1 for t in tokens[:last]) + len(tokens[last])
    return source_line, target_line, make_range(1, c1, 1, c2)


def _oracle_max_similarity(target_line, source_text):
    """Brute force over every subrange of the modified line: the best
    achievable similarity to the source region's text. All subranges
    reaching it are equivalent optima."""
    best_score = 0.0
    n = len(target_line)
    src_len = len(source_text)
    for i in range(n):
        for j in range(i + 1, n + 1):
            length = j - i
            bound = 1.0 - abs(length - src_len) / max(length, src_len)
            if bound <= best_score:
                continue
            score = levenshtein_similarity(target_line[i:j], source_text)
            if score > best_score:
                best_score = score
    return best_score


def test_criterion_5_refinement_oracle(tmp_path):
    """200 generated single-line substitutions: the refined range achieves
    the oracle's best similarity (any optimum counts as agreement) in >= 95%
    of cases and always stays inside the coarse range."""
    gateway = GitGateway(tmp_path)
    rng = random.Random(31337)
    agreements = 0
    containment_failures = 0
    total = 200
    for _ in range(total):
        source_line, target_line, region = _refinement_case(rng)
        source = source_line + "\n"
        target = target_line + "\n"
        reports = gateway.diff_texts(source, target, algorithms=MYERS)
        parsed = tuple(tuple(parse_word_diff(r)) for r in reports)
        candidates = extract_diff_candidates(parsed, region, source, target)
        refined = next(
            (c.range for c in candidates if not c.is_deleted), None
        )
        if refined is None:
            continue
        coarse = make_range(1, 1, 1, len(target_line))
        if not (
            (coarse.l1, coarse.c1) <= (refined.l1, refined.c1)
            and (refined.l2, refined.c2) <= (coarse.l2, coarse.c2)
        ):
            containment_failures += 1
            continue
        source_text = extract_text(source, region)
        refined_score = levenshtein_similarity(
            target_line[refined.c1 - 1 : refined.c2], source_text
        )
        best_score = _oracle_max_similarity(target_line, source_text)
        if refined_score >= best_score - 1e-12:
            agreements += 1
    rate = agreements / total
    ok = rate >= 0.95 and containment_failures == 0
    report_line(
        "5 refinement oracle",
        ok,
        f"agreement {rate:.1%}, containment failures {containment_failures}",
    )
    assert containment_failures == 0
    assert rate >= 0.95


@pytest.fixture(scope="module")
def matrix(corpus):
    return ablation_matrix(corpus["records"], base_dir=corpus["dest"])


def test_criterion_6_ablation_directions(corpus, matrix):
    """Disabling movement loses the swapped-lines fixture; disabling search
    loses the search fixture; disabling refinement strictly increases mean
    char distance; disabling diff extraction drops F1 the most."""

    def outcome_of(report, name):
        result = next(r for r in report.results if r.record.name == name)
        return result.outcome.kind.value if result.outcome else "error"

    full = matrix["full"]
    checks = {
        "movement loses swap fixture": outcome_of(matrix["no_movement"], "swapped_lines")
        != "exact",
        "search loses search fixture": outcome_of(
            matrix["no_search"], "token_found_by_search"
        )
        != "exact",
    }
    full_distance = full.aggregates.mean_char_distance or 0.0
    norefine_distance = matrix["no_refinement"].aggregates.mean_char_distance or 0.0
    checks["refinement off increases char distance"] = norefine_distance > full_distance
    drops = {
        name: full.aggregates.mean_f1 - rep.aggregates.mean_f1
        for name, rep in matrix.items()
        if name != "full"
    }
    checks["diff off causes largest F1 drop"] = drops["no_diff"] == max(drops.values()) and drops[
        "no_diff"
    ] > max(v for k, v in drops.items() if k != "no_diff")
    ok = all(checks.values())
    report_line(
        "6 ablation directions",
        ok,
        "; ".join(f"{k}={'yes' if v else 'NO'}" for k, v in checks.items()),
    )
    assert all(checks.values()), checks


def test_criterion_7_context_size_robustness(corpus):
    """F1 at context sizes 5..20 is at least F1 at 0, varying by < 0.05."""
    sweep = context_sweep(corpus["records"], [0, 5, 10, 15, 20], base_dir=corpus["dest"])
    f1 = {size: rep.aggregates.mean_f1 for size, rep in sweep.items()}
    plateau = [f1[s] for s in (5, 10, 15, 20)]
    ok = all(v >= f1[0] for v in plateau) and (max(plateau) - min(plateau)) < 0.05
    report_line(
        "7 context-size robustness",
        ok,
        ", ".join(f"ctx{s}={f1[s]:.3f}" for s in (0, 5, 10, 15, 20)),
    )
    assert all(v >= f1[0] for v in plateau)
    assert max(plateau) - min(plateau) < 0.05


def test_criterion_8_performance_sanity(repo_builder, capsys):
    """One cmd_map over a 10k-line file finishes; < 3s is the soft target."""
    repo = repo_builder.path
    big_v1 = "".join(f"def fn_{i}(): return {i} * seed\n" for i in range(10_000))
    first = repo_builder.commit({"big.py": big_v1}, "v1")
    big_v2 = big_v1.replace("def fn_5000(): return 5000 * seed", "def fn_5000(): return 5001 * seed")
    second = repo_builder.commit({"big.py": big_v2}, "v2")

    started = time.perf_counter()
    code = cli_main(
        [
            "map",
            "--repo", str(repo),
            "--source-commit", first,
            "--file", "big.py",
            "--start-line", "5001", "--start-col", "22",
            "--end-line", "5001", "--end-col", "32",
            "--target-commit", second,
            "--context", "15",
            "--format", "json",
        ]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()  # swallow the mapping's own output
    assert code == 0
    soft_ok = elapsed < 3.0
    report_line(
        "8 performance sanity",
        True,
        f"{elapsed * 1000:.0f} ms" + ("" if soft_ok else " SOFT-EXCEEDED 3s target"),
    )
    assert elapsed < 30.0  # hard cap: only guards against pathological regressions
