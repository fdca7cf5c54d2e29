"""Golden outputs: sha256 digests of the CLI's output bytes on the demo configs.

A refactor that keeps these digests keeps every byte that ``byzdp run``,
``byzdp sweep`` and ``byzdp diagnose`` write. A change that alters an output
on purpose must say why and record the new digests.
"""

import hashlib
import os

import pytest

from byzdp.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")

RUN_LITTLE_MDA = {
    "metrics.csv": "5e7ba6dc605bb099c31ccf80036588b1194af3a02636b9cdb173ace8a411767d",
    "summary.json": "706330146594c85b372275c3ff58293be3da7c48facc43b684b4f75f7a2213c4",
}

RUN_QUADRATIC_BASELINE = {
    "metrics.csv": "a69fda6c8c98b2f7f9196ade2e38beb2564ac443559cffdba76b604672c36ff2",
    "summary.json": "21f63844181bf2b1b187512abb5befa8c74f166a7ff9223dcb190b07302ae234",
}

DIAGNOSE_MDA_STDOUT = {
    "privacy": "decdb64c9032cb6ee2d74d513fc9d9ffb3e257b6b7d680d0f82a4630dfd5f9bc",
    "no_privacy": "6549462be39109dc141e03244ea8d6579437e468a8de1405d50d7aa16c3b3105",
}

SWEEP_SMALL = {
    "aggregate.csv": "33c5c9acb79eddc570fea12e98b235924777e4e2843fd8839a6e879eaa217cd8",
    "metrics-0738a52d237b.csv": "733b123157d5bf3b3a3c5fcf9adb024da79f665b056b7194167b17281690da3f",
    "metrics-10df252c98c2.csv": "591b46f9e67ebd938377df97edd4a2bfd700a2853cd825cb26ce9b96c20c0a22",
    "metrics-154a9a90dfe2.csv": "abac926b6d5cabbdea20d3037cb0334486923cdc240aa22db6f5d9de18cfd877",
    "metrics-53a6db5f5810.csv": "1bbd5575489707b3e05308d54dd1496a788599df59297763b3caa899b4f11e2f",
    "metrics-5849cffc94bc.csv": "5b8a2bcc2b4ec01e77cc24d74e981eb5adfd51b8f7dc61849160d69d5a65c71e",
    "metrics-629aa717f3a1.csv": "380ce1ed18ad88cc19c35c7b7aca32d7c77c9a862f958b837a7ff3b94c2bd26b",
    "metrics-711eac3ebcef.csv": "0f1f61a5fe6eac378c5e65344ae8d0dcda8d367a57276dd8279393da0b9f13a2",
    "metrics-79e114085e7f.csv": "b96e01a372a40c19d347ed097ee4c5c00d759b924a072555de27d46e3945502e",
    "metrics-bc1ef8799a6a.csv": "b8a9a32e94bea7be7cabb32c1e4b8cba4df81e9b7e62f960426de651de2751ad",
    "metrics-d2cb31ca82e1.csv": "e6b51879c62b6a1e45b239061776ce5a85fbe79d2ea3f70c87404fbeff27c0ad",
    "metrics-d37193d59ace.csv": "ba2e880b324961533eb3685c57515b6b447c4301f41e1cf0f7a5692224e0bde8",
    "metrics-e34e2c0d3ee4.csv": "460d51ce120964fb1fe61baf90b156a34094a4e6334bd6d713e5a2b201e47d99",
    "summary.csv": "25697d50852dc55271cb8a78d621e5040d228cdadccefcaf242e80ecc105343c",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(directory: str, names) -> dict:
    digests = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = _sha256(fh.read())
    return digests


def _run_digests(tmp_path, cfg_name: str) -> dict:
    out = str(tmp_path / "out")
    assert main(["run", os.path.join(CONFIGS, cfg_name), "--out", out]) == 0
    return _file_digests(out, ("metrics.csv", "summary.json"))


def _small_sweep_config(tmp_path) -> str:
    """The batch-size demo sweep cut to 30 steps and 2 seeds, with a no-privacy arm."""
    with open(os.path.join(CONFIGS, "sweep_batch_size.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("steps = 300", "steps = 30"),
                     ("grid_seed = [1, 2, 3, 4, 5]", "grid_seed = [1, 2]")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "sweep_small.cfg"
    path.write_text(text + "grid_epsilon = [0.2, none]\n")
    return str(path)


def _sweep_digests(tmp_path) -> dict:
    out = str(tmp_path / "sweep")
    assert main(["sweep", _small_sweep_config(tmp_path), "--out", out]) == 0
    names = sorted(name for name in os.listdir(out)
                   if name.startswith("metrics-") or name in ("summary.csv", "aggregate.csv"))
    return _file_digests(out, names)


def test_golden_run_little_mda(tmp_path):
    assert _run_digests(tmp_path, "run_little_mda.cfg") == RUN_LITTLE_MDA


def test_golden_run_quadratic_baseline(tmp_path):
    assert _run_digests(tmp_path, "run_quadratic_baseline.cfg") == RUN_QUADRATIC_BASELINE


@pytest.mark.parametrize("variant", sorted(DIAGNOSE_MDA_STDOUT))
def test_golden_diagnose_mda(tmp_path, capsys, variant):
    with open(os.path.join(CONFIGS, "diagnose_mda.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    if variant == "no_privacy":
        assert "epsilon = 0.1" in text
        text = text.replace("epsilon = 0.1", "epsilon = none")
    path = tmp_path / "diagnose.cfg"
    path.write_text(text)
    assert main(["diagnose", str(path)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == DIAGNOSE_MDA_STDOUT[variant]


def test_golden_sweep(tmp_path):
    digests = _sweep_digests(tmp_path)
    assert len(digests) == 14  # 12 cells, each ok, plus summary.csv and aggregate.csv
    assert digests == SWEEP_SMALL
