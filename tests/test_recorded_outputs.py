"""CLI stdout on three registers, against digests recorded beforehand.

Each command runs as a subprocess in UTF-8 mode.  RECORDED holds the
exit code, the stdout length and its SHA-256 as printed by the code
that listed every conjugate pair while building the graph, before the
graph learned its multiplicities first and its pairs on demand; they
must stay byte for byte the same, and stderr must stay empty.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclejoin

SRC = Path(cyclejoin.__file__).resolve().parents[1]

# name -> arguments after --factors
COMMANDS = {
    "count": ("count",),
    "analyze_json": ("analyze", "--format", "json"),
    "generate_tree_index": ("generate", "--provenance", "--tree-index", "5"),
    "generate_json_hex": ("generate", "--format", "json", "--hex", "--provenance"),
    "sample": ("sample", "--seed", "3", "--provenance"),
    "partial": ("generate", "--partial"),
}

# (factors, command name) -> (exit code, stdout bytes, stdout SHA-256)
RECORDED = {
    ("11,111,11111", "count"): (
        0,
        122,
        "b4c81f9e2240153f3610bc900a4e09596fe81996f512cc1b6445cbd185000f32",
    ),
    ("11,111,11111", "analyze_json"): (
        0,
        3165,
        "dbc1b18fe2b139352f1436ab22d2f58ea54cd3eaabc7ec043bdee991305dbaef",
    ),
    ("11,111,11111", "generate_tree_index"): (
        0,
        37700,
        "b4616f2530ef0d19a880ca46875ba726efd1c7d9550b0f7dbf0084a977995947",
    ),
    ("11,111,11111", "generate_json_hex"): (
        0,
        39846,
        "d1fa392316052983e33cd37541b683498bc5084b88e5ef1a9899bb60077ed78b",
    ),
    ("11,111,11111", "sample"): (
        0,
        37700,
        "8afe5758a06de6d6bd98081de359fbae9dc86cd8818e1b3a5403e6d9ddfd6db9",
    ),
    ("11,111,11111", "partial"): (
        0,
        129,
        "be3d4e410628b0255215f1f7579bd37c8808832f027ca9aaf192e67fea4b6d99",
    ),
    ("111,11111,1001001", "count"): (
        0,
        423,
        "776b302aabdabcd01a5ecb5839d340a0f2e9546cdfe0803f0cc6715ba3c04afe",
    ),
    ("111,11111,1001001", "analyze_json"): (
        0,
        63029,
        "271b0ef47f6d5406cd09e4a881a2241d649c3aa514a2df79936bf9033ad4ea54",
    ),
    ("111,11111,1001001", "generate_tree_index"): (
        0,
        719900,
        "3718999ee11f3f8ce3a90ae5bf3bae6e58061e483279f4bae607e54effe26792",
    ),
    ("111,11111,1001001", "generate_json_hex"): (
        0,
        507648,
        "fe9126e724d6f1aa9058765adc7e614cdf7546fcaa8bb3b1d4b6bb7c3d2382cf",
    ),
    ("111,11111,1001001", "sample"): (
        0,
        719900,
        "186598ced8962686d1d74fce25c719d7ed123c9865af958c61002f6a51a75f40",
    ),
    ("111,11111,1001001", "partial"): (
        0,
        4097,
        "e4a42973724650935178a4aa3ef6bd03f8bd84d3338eb155271dbdc85c799d4d",
    ),
    ("1001001,10000001111", "count"): (
        0,
        225,
        "6791eefb6fba0f8c9220fbd4d7cdd3084b417cbbf47d72924a728a10127613dd",
    ),
    ("1001001,10000001111", "analyze_json"): (
        0,
        12258,
        "e2a5315120ea7368a48edc73d1650054e4225ca87c1bbde49c19572ec52128e3",
    ),
    ("1001001,10000001111", "generate_tree_index"): (
        0,
        6659900,
        "6118f0808461465aa3a7912e15ef6874e9bcf9270a06fadde74afc795c444b98",
    ),
    ("1001001,10000001111", "generate_json_hex"): (
        0,
        1769247,
        "3420dd9551a4e76defbed59d2e6ed136526c30c7094b08fd78b88c9e40e2fd6f",
    ),
    ("1001001,10000001111", "sample"): (
        0,
        6659900,
        "4f610e033e15346df6f79845042837e8cbb0dd9b5b1677a56bc4dda603c0624d",
    ),
    ("1001001,10000001111", "partial"): (
        0,
        65537,
        "302919fd7faf3599842c460db6ffe475e6d7a1628c59542f112c12cacd8a2ae4",
    ),
}


@pytest.mark.parametrize("factors, name", list(RECORDED))
def test_stdout_matches_recorded(factors, name):
    command, *rest = COMMANDS[name]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUTF8="1")
    proc = subprocess.run(
        [sys.executable, "-m", "cyclejoin", command, "--factors", factors, *rest],
        capture_output=True,
        env=env,
        timeout=120,
    )
    got = (proc.returncode, len(proc.stdout), hashlib.sha256(proc.stdout).hexdigest())
    assert got == RECORDED[factors, name]
    assert proc.stderr == b""
