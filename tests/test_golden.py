"""Golden outputs: sha256 digests of the CLI's output bytes on the demo configs.

A refactor that keeps these digests keeps every byte that ``byzdp run``,
``byzdp sweep`` and ``byzdp diagnose`` write. A change that alters an output
on purpose must say why and record the new digests. The digests hold only
under the OpenBLAS kernel they were recorded with (README "Determinism"), so
a mismatch names the kernel this run asked for.
"""

import hashlib
import json
import os

import pytest

from byzdp.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
KERNEL = (f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', 'unset')}: the digests "
          "depend on the BLAS kernel, see README 'Determinism'")

RUN_LITTLE_MDA = {
    "metrics.csv": "39fef0a2cd95afe2a32d70e1fcdeffcd6d48e6793a78957aa72d9d2ba9275439",
    "summary.json": "97c833440001475927b5a4ce6d262b9bc2ef1c6c21a1a1c7a3c42b54d3706578",
}

RUN_QUADRATIC_BASELINE = {
    "metrics.csv": "ed2c18368204cd73999241c8f1e948e6451a6ce3b3bccef999d4cbbe4b70ab62",
    "summary.json": "3260df2c15fe60d2603afa2321336b005c908cc59646aeba6b560e0d8ca47cdc",
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


SWEEP_SELECTION_RULES = {
    "aggregate.csv": "88278bfc91b47380e601472376be129481f31b73bace75a8353dee7144f9469c",
    "metrics-1aef64bdb20c.csv": "92104a2e41d85e66caee791f5c640bebc29546c53c1f3afa9a962c668de1b8cd",
    "metrics-7ac7b7466867.csv": "4154ffaf7bebb118ca041493968bfdb0841b57f05a1c1af70b593dd160388e0b",
    "metrics-9e2353ccf536.csv": "af3a6a6e61427773439f753b1f612ff5af560c860913d618324bf6746af2fd0c",
    "metrics-a208a038fe71.csv": "f56033c0c9b7242ee661f2be53b7dbd2115a4e018d6c91e41c86a43e940d2603",
    "metrics-a88ff7a57895.csv": "30a472bda1014b93f1a0efdb7cb40a36d460cef1dd392e80f40fa8c0f9784a2a",
    "metrics-b3339bc0e8a0.csv": "7b36873fa8499cc5ed8ffcfb13a1f4853595d483de8ca7197ec676627abebf26",
    "metrics-bdaaefc71151.csv": "9b25109ef29624b777b4f61533ce8964e4a2d45c9e519db1a7aa192b8ac9e54a",
    "metrics-becdc595fe75.csv": "79ac9b359dd85f6dfde492135f016c76107cb0b2e31309e05c9269fb84778725",
    "metrics-d4f47d2a844e.csv": "b64bd924ebda6a187cb7f6ebd1cb653494fde595151d75f0c87b6b120f19c25a",
    "metrics-d94077c5e346.csv": "72944614a6e44eb061bbdb9178e94efdeeed9bfbd63f7287c05a13746ed03903",
    "metrics-f5a948017ae5.csv": "78bf32c88bb15f15b87dd5eed71065d6560f9142f005666db39982b14adc9a32",
    "metrics-f84cf1b64a97.csv": "bf0ff20c3147e4ba38ceec9ba1fad7dc4e0d79e51f5067b45864640df5c0c39b",
    "summary.csv": "4218517558546b243318591e1c214c9d858208bbc22db8c78854554105a0c010",
}


# Sweeps whose batch sizes and dataset size are not multiples of 4, so that
# neither a round's k = (n - f) * b rows nor the m = 4001 evaluation rows split
# evenly into groups of 4. Each clip bound binds on some rows and not others.
ODD_ROWS_CFG = """\
dataset = blobs
dataset_seed = 2
dataset_size = 4001
half_sep = 0.16
axis_std = 0.088
cross_std = 0.16
reg = 1e-4
gar = mda
attack = little
epsilon = 0.2
delta = 1e-5
schedule = constant
gamma = 0.5
momentum = 0.99
master_seed = 1
batch_size = 25
grid_batch_size = [25, 127]
grid_epsilon = [0.2, none]
"""

ODD_ROWS_MODELS = {
    "logistic": "model = logistic\ndim = 20\nn = 15\nf = 3\nclip = 0.3\nsteps = 30\n",
    "mlp1": ("model = mlp1\ndim = 20\nhidden = 32\nn = 19\nf = 4\nclip = 1.0\n"
             "steps = 20\neval_every = 5\n"),
}

SWEEP_ODD_ROWS = {
    "logistic": {
        "aggregate.csv": "eb99c5ac596916cb21ecb67a6e3e021d1d2d83c324feede9ab5357ebc1bf5c4d",
        "metrics-843356c29a18.csv": "800055e534de3e38cf4ee1d7543c3f2391e08d963daca97dcfe9e3f94ca29ea0",
        "metrics-854270f9e9b1.csv": "4ff1b612252be3185feff1e64bcae38c56e5896626cb83741918766955aef741",
        "metrics-99c9bf3ad7f7.csv": "84b56ea3a362a4f01948846e9faf3107cbbae22654f1c05890238e355b313cdb",
        "metrics-fc1adb724c96.csv": "eac6cac36a877606533807bf07924534309ea8d5e4a73fd76241b6e94cf40c02",
        "summary.csv": "1be93ad62786b4bc897b6b5e522e4805ae4cbae85fa5205ec5d2f514bab35094",
    },
    "mlp1": {
        "aggregate.csv": "4292649f7a55e24729cb133b67d35f8d6d16f97d467fe7e4e8caaeee6595c41a",
        "metrics-06d43a196a73.csv": "fed1bafa0adadd752f188e5e8fed44c22d063658cc5aaafc94c713bcd7077a92",
        "metrics-198372d7774a.csv": "c552b299088cc3b2cfb825ef9a7a9c22f88c7e6ef350e37c7ff110115fa05746",
        "metrics-35bf0b6a7e5c.csv": "b447db9c2da62481563b15b4731dfa40682062116896a1ea3c26c8ad68cfd569",
        "metrics-d4a316511cf6.csv": "31f6fec22b926d08f936a7afb26b7bac26591025ff24258bf32912c9af1d44d1",
        "summary.csv": "a2cef417c8e686a8b7344269f7ba3d479b3eea1a57cfda8135ea045cf6dfe3a4",
    },
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


def _small_sweep_config(tmp_path, seeds: str, batch_sizes: str, extra: str) -> str:
    """The batch-size demo sweep cut to 30 steps and the given seed and b axes."""
    with open(os.path.join(CONFIGS, "sweep_batch_size.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("steps = 300", "steps = 30"),
                     ("grid_seed = [1, 2, 3, 4, 5]", f"grid_seed = {seeds}"),
                     ("grid_batch_size = [16, 128, 512]", f"grid_batch_size = {batch_sizes}")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "sweep_small.cfg"
    path.write_text(text + extra)
    return str(path)


def _sweep_digests(tmp_path, cfg_path: str) -> dict:
    out = str(tmp_path / "sweep")
    assert main(["sweep", cfg_path, "--out", out]) == 0
    names = sorted(name for name in os.listdir(out)
                   if name.startswith("metrics-") or name in ("summary.csv", "aggregate.csv"))
    return _file_digests(out, names)


def test_golden_run_little_mda(tmp_path):
    assert _run_digests(tmp_path, "run_little_mda.cfg") == RUN_LITTLE_MDA, KERNEL


def test_golden_run_quadratic_baseline(tmp_path):
    assert _run_digests(tmp_path, "run_quadratic_baseline.cfg") == RUN_QUADRATIC_BASELINE, \
        KERNEL


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
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == DIAGNOSE_MDA_STDOUT[variant], \
        KERNEL


def test_golden_diagnose_logistic(capsys):
    """The logistic theorem-bound path: Q* comes from estimate_min_loss."""
    assert main(["diagnose", os.path.join(CONFIGS, "run_little_mda.cfg")]) == 0
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        digest = json.load(fh)["diagnose_logistic"][0]  # the bench's seed-0 run of this config
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest, KERNEL


def test_golden_sweep(tmp_path):
    cfg = _small_sweep_config(tmp_path, "[1, 2]", "[16, 128, 512]",
                              "grid_epsilon = [0.2, none]\n")
    digests = _sweep_digests(tmp_path, cfg)
    assert len(digests) == 14  # 12 cells, each ok, plus summary.csv and aggregate.csv
    assert digests == SWEEP_SMALL, KERNEL


def test_golden_sweep_selection_rules(tmp_path):
    """krum, median and bulyan at f = 1 and f = 3 (bulyan averages 9 and 1 values)."""
    cfg = _small_sweep_config(tmp_path, "[1]", "[16, 512]",
                              "grid_gar = [krum, median, bulyan]\ngrid_f = [1, 3]\n")
    digests = _sweep_digests(tmp_path, cfg)
    assert len(digests) == 14  # 12 cells, each ok, plus summary.csv and aggregate.csv
    assert digests == SWEEP_SELECTION_RULES, KERNEL


@pytest.mark.parametrize("kind", sorted(ODD_ROWS_MODELS))
def test_golden_sweep_odd_rows(tmp_path, kind):
    """Batch sizes 25 and 127 and m = 4001: no row count is a multiple of 4."""
    path = tmp_path / "odd_rows.cfg"
    path.write_text(ODD_ROWS_CFG + ODD_ROWS_MODELS[kind])
    digests = _sweep_digests(tmp_path, str(path))
    assert len(digests) == 6  # 4 cells, each ok, plus summary.csv and aggregate.csv
    assert digests == SWEEP_ODD_ROWS[kind], KERNEL
