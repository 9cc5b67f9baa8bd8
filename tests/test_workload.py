import random

import pytest

NAN, INF = float("nan"), float("inf")

from batchconn.oracle import OracleGraph
from batchconn.workload import ScriptError, WorkloadScript, generate, parse_script


def test_roundtrip_byte_exact():
    s = WorkloadScript(n=8, seed=3)
    s.batches.append(("I", [(0, 1), (1, 2)]))
    s.batches.append(("Q", [(0, 2)]))
    s.batches.append(("D", [(0, 1)]))
    text = s.serialize()
    again = parse_script(text)
    assert again == s
    assert again.serialize() == text


def test_roundtrip_generated():
    s = generate(32, 40, 5, mix=(0.5, 0.3, 0.2), seed=7)
    assert parse_script(s.serialize()) == s


def test_roundtrip_negative_seed():
    # random.Random takes negative seeds, so the header must carry them
    text = generate(8, 5, 2, seed=-1).serialize()
    assert text.startswith("# n=8 seed=-1\n")
    assert parse_script(text).seed == -1
    assert parse_script(text).serialize() == text


def test_parse_errors():
    with pytest.raises(ScriptError):
        parse_script("")
    with pytest.raises(ScriptError):
        parse_script("# n=4 seed=x\n")
    with pytest.raises(ScriptError):
        parse_script("# n=4 seed=0\nE 1 2\n")
    with pytest.raises(ScriptError):
        parse_script("# n=4 seed=0\nB Z\n")
    with pytest.raises(ScriptError):
        parse_script("# n=4 seed=0\nB I\nE 1\n")
    with pytest.raises(ScriptError):
        parse_script("# n=4 seed=0\nX\n")
    with pytest.raises(ScriptError):
        parse_script("# n=0 seed=0\n")
    # spellings that serialize does not write: every script that parses must
    # serialize back to the same bytes
    for text in [
        "# n=8 seed=-0\n",
        "# n=08 seed=007\n",
        "# n=\u0668 seed=1\n",
        "# n=8 seed=0\r\n",
        "# n=8 seed=0\nB I\nE 00 1\n",
        "# n=8 seed=0\nB I\nE +1 2\n",
        "# n=8 seed=0\nB I\nE 1_0 2\n",
        "# n=8 seed=0\nB I\nE  1 2\n",
        "# n=8 seed=0\nB I\nE 1 2 \n",
        "# n=8 seed=0\nB  I\n",
    ]:
        with pytest.raises(ScriptError):
            parse_script(text)


def test_generate_single_insert_batch():
    s = generate(16, 1, 4, mix=(1.0, 0.0, 0.0), seed=1)
    assert len(s.batches) == 1
    kind, pairs = s.batches[0]
    assert kind == "I"
    assert len(pairs) == 4
    assert all(u != v for u, v in pairs)
    # valid per the oracle's rules
    OracleGraph(16).apply("I", pairs)


def test_generate_all_delete_without_inserts_fails():
    with pytest.raises(ScriptError):
        generate(16, 5, 4, mix=(0.0, 1.0, 0.0), seed=1)


def test_generate_bad_params():
    with pytest.raises(ScriptError):
        generate(1, 5, 4, mix=(1.0, 0.0, 0.0), seed=1)
    with pytest.raises(ScriptError):
        generate(8, 0, 4, mix=(1.0, 0.0, 0.0), seed=1)
    with pytest.raises(ScriptError):
        generate(8, 5, 4, mix=(0.5, 0.2, 0.2), seed=1)
    # NaN passes every comparison check, and inf overflows the size band
    for size, mix in [(NAN, (0.5, 0.3, 0.2)), (INF, (0.5, 0.3, 0.2)), (2, (NAN, 0.0, 1.0))]:
        with pytest.raises(ScriptError):
            generate(8, 5, size, mix=mix, seed=1)


def test_generate_rejects_a_size_with_no_integer_within_ten_percent():
    # 1.5: the band [ceil(1.35), floor(1.65)] is empty; whether a seed drew a
    # deletion batch used to decide between a script and an error
    for seed in (0, 2):
        with pytest.raises(ScriptError, match="within 10% of 1.5"):
            generate(16, 6, 1.5, mix=(0.5, 0.3, 0.2), seed=seed)
    # with no deletions the size only shapes insert and query batches
    assert generate(16, 6, 1.5, mix=(0.5, 0.0, 0.5), seed=2).batches


def test_generated_scripts_replay_cleanly_and_hit_delta():
    for seed in range(5):
        target = [1, 4, 16][seed % 3]
        s = generate(64, 60, target, mix=(0.5, 0.3, 0.2), seed=seed)
        oracle = OracleGraph(64)
        sizes = []
        for kind, pairs in s.batches:
            if kind == "Q":
                oracle.connected_many(pairs)
            else:
                oracle.apply(kind, pairs)
                if kind == "D":
                    sizes.append(len(pairs))
        if sizes:
            mean = sum(sizes) / len(sizes)
            assert abs(mean - target) <= 0.1 * target + 1e-9


def test_generated_deletions_only_touch_live_edges():
    s = generate(32, 80, 6, mix=(0.4, 0.4, 0.2), seed=11)
    live = set()
    for kind, pairs in s.batches:
        if kind == "I":
            for e in pairs:
                assert e not in live
                live.add(e)
        elif kind == "D":
            for e in pairs:
                assert e in live
                live.remove(e)
