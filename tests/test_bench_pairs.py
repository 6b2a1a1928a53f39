import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pair(base, change):
    return {"base": {"metrics": base}, "change": {"metrics": change}}


def test_summarise_counts_wins_in_each_metrics_direction():
    pairs = [_pair({"wall_s": 2.0, "items_per_s": 10.0}, {"wall_s": 1.0, "items_per_s": 20.0}),
             _pair({"wall_s": 3.0, "items_per_s": 12.0}, {"wall_s": 4.0, "items_per_s": 11.0}),
             _pair({"wall_s": 2.5, "items_per_s": 11.0}, {"wall_s": 1.5, "items_per_s": 30.0})]
    out = bench_pairs.summarise(pairs, {"wall_s": "lower", "items_per_s": "higher"})
    assert out["wall_s"]["median"] == {"base": 2.5, "change": 1.5}
    assert out["wall_s"]["ratio"] == pytest.approx(0.6)
    assert out["wall_s"]["change_better_in"] == "2/3"
    assert out["items_per_s"]["median"] == {"base": 11.0, "change": 20.0}
    assert out["items_per_s"]["change_better_in"] == "2/3"
    lo, hi = out["items_per_s"]["quartiles"]["change"]
    assert lo <= 20.0 <= hi


def test_workload_flag_needs_a_pair_count():
    args = bench_pairs.parse_args(["--base", "a", "--change", "b", "--seed", "1", "--out", "x",
                                   "--workload", "inpaint=5", "--workload", "train=3"])
    assert args.workloads == [("inpaint", 5), ("train", 3)]
    for bad in ("inpaint", "inpaint=0", "=3"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["--base", "a", "--change", "b", "--seed", "1",
                                    "--out", "x", "--workload", bad])
