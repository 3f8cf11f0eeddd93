"""Golden outputs: two exemplars at two seeds each must reproduce the byte
counts, ranks, slot counts, kernel-event counts, trace schema, event kinds
and kernel checksums recorded in `tests/golden/outputs.json`. Regenerate it
with `PYTHONPATH=src python tests/golden/make.py` only when an output is
meant to change."""
import json
import sys
import warnings
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
if str(GOLDEN) not in sys.path:
    sys.path.insert(0, str(GOLDEN))

import make  # noqa: E402


def test_exemplar_outputs_match_the_golden_file(tmp_path):
    golden = json.loads(make.OUTPUTS.read_text(encoding="utf-8"))
    same_numpy = golden["numpy"] == np.__version__
    differ = []
    for selector in make.RUNS:
        for seed in make.SEEDS:
            key = make.key(selector, seed)
            got = make.run(selector, seed, tmp_path / key)
            want = golden["runs"][key]
            if not same_numpy:
                del got["fingerprint"], want["fingerprint"]
            differ += [f"{key} {field}" for field in want if got[field] != want[field]]
    assert differ == [], f"outputs differ from {make.OUTPUTS}: {differ}"
    if not same_numpy:
        warnings.warn(f"NumPy {np.__version__} is not the {golden['numpy']} the golden "
                      "file was made with: kernel checksum fingerprints were not compared, "
                      "every count was")
