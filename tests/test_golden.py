"""Golden outputs: `pipeline.evaluate_scene`'s rows on fixed scenes, compared
with the checked-in `data/golden_rows.json`.

The cases are the benchmark's: `detect_clean` runs scenes 0-6 of pipeline
seed 0 with no noise and no ICP, and `refine_noisy` runs scene 11 with the
CLI's `moderate` noise and 4-hypothesis ICP. Integers must match exactly and
floats to a relative 1e-9, so BLAS builds that differ in the last bits pass
while any real change to a pose does not. A planned output change rewrites
the file in the same change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from posevote import pipeline
from posevote.refine import IcpParams
from posevote.synth import NoiseSpec, default_registry

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_rows.json"

CONFIGS = {
    "detect_clean": pipeline.PipelineConfig(seed=0),
    "refine_noisy": pipeline.PipelineConfig(
        seed=0, noise=NoiseSpec(rng_seed=0, direction_sigma=0.05,
                                depth_sigma=0.005, rotation_sigma_deg=25.0),
        refine=True, icp=IcpParams(n_hypotheses=4, rng_seed=0)),
}
CASES = [("detect_clean", i) for i in range(7)] + [("refine_noisy", 11)]


def _rows(workload, scene, models):
    return [r.to_row() for r in
            pipeline.evaluate_scene(scene, CONFIGS[workload], models)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def models():
    return default_registry()


@pytest.mark.parametrize("workload,scene", CASES,
                         ids=[f"{w}-{s}" for w, s in CASES])
def test_rows_match_golden(golden, models, workload, scene):
    want = golden[workload][str(scene)]
    got = _rows(workload, scene, models)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key, value in w.items():
            if isinstance(value, float):
                assert isinstance(g[key], float), key
                assert math.isclose(g[key], value, rel_tol=1e-9, abs_tol=0.0), \
                    (key, g[key], value)
            else:
                assert type(g[key]) is type(value) and g[key] == value, key


if __name__ == "__main__":
    reg = default_registry()
    out = {}
    for w, s in CASES:
        out.setdefault(w, {})[str(s)] = _rows(w, s, reg)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
