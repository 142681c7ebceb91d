"""`cyclejoin verify` on edge inputs, against outputs recorded beforehand.

Each case is run as a subprocess in UTF-8 mode, so file and stdin
decoding do not depend on the host's locale.  RECORDED holds the exit
code, stdout and stderr of the line-by-line check that the current
streamed one replaced (one `str.strip("01")` scan in the command and
one in `verify_de_bruijn`, every line held in memory); they must stay
byte for byte the same.  The exceptions are `order_zero` and
`order_negative`: that check ignored `--order 0`, and both once printed
FAIL for their line; an `--order` below 1 now exits 2 before any input
is read, and their entries record that.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclejoin

DB3 = "00010111"  # de Bruijn, order 3
DB3B = "00011101"  # de Bruijn, order 3
DB4 = "0000100110101111"  # de Bruijn, order 4
NOT_DB3 = "00000000"

BAD_UTF8 = f"{DB3}\n{DB3[:4]}".encode() + b"\xff" + f"{DB3[5:]}\n".encode()

# name -> (extra argv, input bytes, read from stdin)
CASES = {
    "crlf": ((), f"{DB3}\r\n{DB3B}\r\n".encode(), False),
    "cr_only": ((), f"{DB3}\r{NOT_DB3}\r".encode(), False),
    "crlf_stdin": ((), f"{DB3}\r\n{DB4}\r\n".encode(), True),
    "blank_and_comments": ((), f"# c\n\n{DB3}\n   \n#{NOT_DB3}\n\t\n{DB3B}\n\n".encode(), False),
    "only_comments": ((), b"# nothing here\n\n", False),
    "empty": ((), b"", False),
    "empty_stdin": ((), b"", True),
    "stdin": ((), f"{DB3}\n{NOT_DB3}\n{DB4}\n".encode(), True),
    "not_de_bruijn": ((), f"{NOT_DB3}\n".encode(), False),
    "not_power_of_two": ((), f"{DB3}0\n".encode(), False),
    "order_zero_lines": ((), b"0\n1\n", False),
    "inner_space": ((), f"{DB3[:4]} {DB3[4:]}\n".encode(), False),
    "non_binary": ((), f"{DB3[:4]}2{DB3[5:]}\n{DB3}\n".encode(), False),
    "non_ascii": ((), f"{DB3[:7]}\u00e9\n{DB3}\n".encode(), False),
    "non_ascii_digit": ((), f"{DB3[:7]}\u0661\n".encode(), False),
    # str.strip() removes all of these; file iteration splits on none of them
    "unicode_whitespace": (
        (),
        f"{DB3}\x1c\n{DB3B}\xa0\n\xa0{DB3}\n{DB3}\x85\n{DB3B} \n".encode(),
        False,
    ),
    "unicode_whitespace_stdin": ((), f"{DB3}\x1c\n\xa0{DB3B}\xa0\n".encode(), True),
    # a file fails to decode; stdin decodes with surrogateescape in UTF-8 mode
    "non_utf8": ((), BAD_UTF8, False),
    "non_utf8_stdin": ((), BAD_UTF8, True),
    "non_utf8_json": (("--format", "json"), BAD_UTF8, False),
    "order_equal": (("--order", "3"), f"{DB3}\n{DB3B}\n".encode(), False),
    "order_below": (("--order", "2"), f"{DB3}\n0011\n".encode(), False),
    "order_above": (("--order", "4"), f"{DB3}\n{DB4}\n".encode(), False),
    "order_negative": (("--order", "-2"), f"{DB3}\n".encode(), False),
    "order_zero": (("--order", "0"), f"{DB3}\n".encode(), False),
    "order_huge": (("--order", "99"), f"{DB3}\n".encode(), False),
    "json": (("--format", "json"), f"{DB3}\n{NOT_DB3}\n{DB4}\n0\n".encode(), False),
    "json_all_valid": (("--format", "json"), f"{DB3}\n{DB4}\n".encode(), False),
    "json_empty": (("--format", "json"), b"\n# c\n", False),
    "json_stdin_order": (("--format", "json", "--order", "4"), f"{DB4}\n{DB3}\n".encode(), True),
}

SRC = Path(cyclejoin.__file__).resolve().parents[1]

DECODE_ERROR = b"error: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte\n"
ORDER_BELOW_ONE = b"error: --order must be at least 1\n"

# (exit code, stdout, stderr) per case
RECORDED = {
    "blank_and_comments": (0, b"sequence 1: order 3: ok\nsequence 2: order 3: ok\n", b""),
    "cr_only": (1, b"sequence 1: order 3: ok\nsequence 2: order 3: FAIL\n", b""),
    "crlf": (0, b"sequence 1: order 3: ok\nsequence 2: order 3: ok\n", b""),
    "crlf_stdin": (0, b"sequence 1: order 3: ok\nsequence 2: order 4: ok\n", b""),
    "empty": (1, b"no sequences read\n", b""),
    "empty_stdin": (1, b"no sequences read\n", b""),
    "inner_space": (1, b"sequence 1: order 3: FAIL\n", b""),
    "json": (
        1,
        b'{"results": [{"order": 3, "valid": true}, {"order": 3, "valid": false}, '
        b'{"order": 4, "valid": true}, {"order": 0, "valid": false}], "all_valid": false}\n',
        b"",
    ),
    "json_all_valid": (
        0,
        b'{"results": [{"order": 3, "valid": true}, {"order": 4, "valid": true}], '
        b'"all_valid": true}\n',
        b"",
    ),
    "json_empty": (1, b'{"results": [], "all_valid": false}\n', b""),
    "json_stdin_order": (
        1,
        b'{"results": [{"order": 4, "valid": true}, {"order": 4, "valid": false}], '
        b'"all_valid": false}\n',
        b"",
    ),
    "non_ascii": (1, b"sequence 1: order 3: FAIL\nsequence 2: order 3: ok\n", b""),
    "non_ascii_digit": (1, b"sequence 1: order 3: FAIL\n", b""),
    "non_binary": (1, b"sequence 1: order 3: FAIL\nsequence 2: order 3: ok\n", b""),
    "non_utf8": (2, b"", DECODE_ERROR),
    "non_utf8_json": (2, b"", DECODE_ERROR),
    "non_utf8_stdin": (1, b"sequence 1: order 3: ok\nsequence 2: order 3: FAIL\n", b""),
    "not_de_bruijn": (1, b"sequence 1: order 3: FAIL\n", b""),
    "not_power_of_two": (1, b"sequence 1: order 3: FAIL\n", b""),
    "only_comments": (1, b"no sequences read\n", b""),
    "order_above": (1, b"sequence 1: order 4: FAIL\nsequence 2: order 4: ok\n", b""),
    "order_below": (1, b"sequence 1: order 2: FAIL\nsequence 2: order 2: ok\n", b""),
    "order_equal": (0, b"sequence 1: order 3: ok\nsequence 2: order 3: ok\n", b""),
    "order_huge": (1, b"sequence 1: order 99: FAIL\n", b""),
    "order_negative": (2, b"", ORDER_BELOW_ONE),
    "order_zero": (2, b"", ORDER_BELOW_ONE),
    "order_zero_lines": (1, b"sequence 1: order 0: FAIL\nsequence 2: order 0: FAIL\n", b""),
    "stdin": (
        1,
        b"sequence 1: order 3: ok\nsequence 2: order 3: FAIL\nsequence 3: order 4: ok\n",
        b"",
    ),
    "unicode_whitespace": (
        0,
        b"".join(b"sequence %d: order 3: ok\n" % i for i in range(1, 6)),
        b"",
    ),
    "unicode_whitespace_stdin": (0, b"sequence 1: order 3: ok\nsequence 2: order 3: ok\n", b""),
}


def run_verify(src: Path, path: str, argv=(), stdin: bytes = b""):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUTF8="1")
    proc = subprocess.run(
        [sys.executable, "-m", "cyclejoin", "verify", path, *argv],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_case(src: Path, name: str, tmp_path: Path):
    argv, data, stdin = CASES[name]
    if stdin:
        return run_verify(src, "-", argv, data)
    f = tmp_path / "input.txt"
    f.write_bytes(data)
    return run_verify(src, str(f), argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_edge_input_matches_recorded_output(name, tmp_path):
    assert run_case(SRC, name, tmp_path) == RECORDED[name]


def test_verify_missing_file_exits_2_before_output(tmp_path):
    code, out, err = run_verify(SRC, str(tmp_path / "missing.txt"))
    assert code == 2 and out == b"" and err.startswith(b"error: ")
