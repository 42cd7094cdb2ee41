"""``Dictionary.translate`` memoises its label mapping per (source, target)
pair; a dictionary grown on either side must never be served a stale one."""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.dataframe.column import Column, DType, _TRANSLATION_MEMO_SIZE, encode
from repro.dataframe.table import Table


def reference_translate(target, codes, source) -> list:
    """Label-by-label translation: what ``translate`` must return."""
    out = []
    for code in codes:
        if code < 0:
            out.append(-1)
            continue
        mapped = target.code_of(source.labels[code])
        out.append(len(target) if mapped < 0 else mapped)
    return out


class TestTranslateMemo:
    def test_repeated_translation_reuses_the_mapping(self):
        _, target = encode(["a", "b", "c", "d"])
        codes, source = encode(["c", "x", None, "a"])
        first = target.translate(codes, source)
        assert first.tolist() == [2, 4, -1, 0]
        assert len(target._translations) == 1
        memo = next(iter(target._translations.values()))
        second = target.translate(codes[::-1].copy(), source)
        assert second.tolist() == [0, -1, 4, 2]
        assert next(iter(target._translations.values())) is memo

    def test_grown_source_is_translated_afresh(self):
        _, target = encode(["a", "b", "c", "d"])
        codes, source = encode(["c", "x"])
        assert target.translate(codes, source).tolist() == [2, 4]
        grown_codes, grown = source.encode(["d", "x", "b", "zz"])
        assert grown is not source and len(grown) == len(source) + 3
        assert target.translate(grown_codes, grown).tolist() == [3, 4, 1, 4]
        # The old source still maps through its own (memoised) entry.
        assert target.translate(codes, source).tolist() == [2, 4]

    def test_grown_target_is_not_served_the_old_mapping(self):
        _, target = encode(["a", "b", "c"])
        codes, source = encode(["x", "a", "y"])
        assert target.translate(codes, source).tolist() == [3, 0, 3]
        _, grown = target.encode(["y"])
        # A grown target is a new dictionary with a memo of its own: "y" is
        # a label now and "not a label" moved from 3 to 4.
        assert not grown._translations
        assert grown.translate(codes, source).tolist() == [4, 0, 3]
        assert target.translate(codes, source).tolist() == [3, 0, 3]

    def test_sibling_extensions_of_equal_length_never_collide(self):
        """Two branches extend one source to the same length with different
        labels: the length alone would collide, the chain token does not."""
        _, target = encode(["p", "q", "r", "s"])
        base_codes, base = encode(["p", "zz"])
        left_codes, left = base.encode(["q"])
        right_codes, right = base.encode(["s"])
        assert len(left) == len(right)
        assert target.translate(left_codes, left).tolist() == [1]
        assert target.translate(right_codes, right).tolist() == [3]
        both = np.array([0, 1, 2], dtype=np.int64)
        assert target.translate(both, left).tolist() == reference_translate(target, both, left)
        assert target.translate(both, right).tolist() == reference_translate(target, both, right)

    def test_memo_stays_bounded(self):
        _, target = encode(["a", "b"])
        for i in range(3 * _TRANSLATION_MEMO_SIZE):
            codes, source = encode([f"s{i}", "b", None])
            assert target.translate(codes, source).tolist() == [2, 1, -1]
            assert len(target._translations) <= _TRANSLATION_MEMO_SIZE

    def test_concurrent_translations_stay_correct(self):
        """Threads translate from more sources than the memo holds, so its
        entries are added and dropped while others read them."""
        _, target = encode([f"t{i}" for i in range(50)])
        sources = [
            encode([f"t{(i * 7 + j) % 60}" for j in range(20)])
            for i in range(3 * _TRANSLATION_MEMO_SIZE)
        ]
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        failures = []

        def run(slot: int) -> None:
            barrier.wait(timeout=30)
            for round_ in range(20):
                codes, source = sources[(slot + round_) % len(sources)]
                expected = reference_translate(target, codes, source)
                if target.translate(codes, source).tolist() != expected:
                    failures.append((slot, round_))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(target._translations) <= _TRANSLATION_MEMO_SIZE

    def test_joins_against_an_appended_table_see_its_new_labels(self):
        """End to end: a left join re-run after the right side's key column
        grew new labels (its smaller dictionary is the translated source)
        matches the rows a fresh table joins."""
        left = Table(
            [Column("k", ["a", "b", "c", "d", "e", "f"], dtype=DType.CATEGORICAL)]
        )
        right = Table(
            [
                Column("k", ["e", "a", "x"], dtype=DType.CATEGORICAL),
                Column("v", np.array([5.0, 1.0, 9.0]), dtype=DType.NUMERIC),
            ]
        )
        before = left.left_join(right, on=["k"])
        assert np.array_equal(
            before.column("v").values, [1.0, np.nan, np.nan, np.nan, 5.0, np.nan], equal_nan=True
        )
        right.append_rows({"k": ["c", "b"], "v": [3.0, 2.0]})
        after = left.left_join(right, on=["k"])
        fresh = left.left_join(
            Table(
                [
                    Column("k", ["e", "a", "x", "c", "b"], dtype=DType.CATEGORICAL),
                    Column("v", np.array([5.0, 1.0, 9.0, 3.0, 2.0]), dtype=DType.NUMERIC),
                ]
            ),
            on=["k"],
        )
        assert np.array_equal(
            after.column("v").values, [1.0, 2.0, 3.0, np.nan, 5.0, np.nan], equal_nan=True
        )
        assert np.array_equal(after.column("v").values, fresh.column("v").values, equal_nan=True)
