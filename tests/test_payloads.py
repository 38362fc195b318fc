"""Payload identity: the exit code, stderr and stdout of fixed commands.

Each case runs `cli.main` in process and compares its exit code and stderr
with the table, and the sha256 of its stdout with the table's digest.  An
argparse usage error counts as its `SystemExit` code, and `COLUMNS` is
pinned so that argparse wraps its usage line the same way in any terminal.
The run time, `elapsed_seconds`, is masked before hashing.  A change that
alters a payload on purpose updates its row and says so in CHANGES.md.
"""

import hashlib
import re
import shlex

import pytest

from hensel.cli import main

USAGE = "usage: hensel [-h] {fl-verify,sweep,hecke,theta,lseries,frobenius,trace} ...\n"
INVALID_CHOICE = (
    "hensel: error: argument subcommand: invalid choice: '{}' (choose from "
    "'fl-verify', 'sweep', 'hecke', 'theta', 'lseries', 'frobenius', 'trace')\n"
)

PAYLOADS = [
    # the README CLI block
    ("fl-verify --p 3 --a 1 --b 3", 0, "",
     "2ae0f3916c23513565c057ac1935e6f4260baafc2ad7a1f7a8cbebdf823a1567"),
    ("fl-verify --p 3 --a 1/3 --b 3", 0, "",
     "8270db9e3c07466aae6f50927241e9f5655f766cfa591e19158eff8e89f65d03"),
    ("sweep --p-list 3,5,7 --vb-list 1,2,3 --kappa 1", 0, "",
     "0aee623b367557ea9bb91ec95278478ddd95c1bfe9eeda948e43eb445f5d864b"),
    ("fl-verify --p 3 --a 1 --b 9 --kappa 0", 0, "",
     "f9a5649c37e6bbc139ce1bb6efbd18c424722cd984906c1e2a13b475f0ed323f"),
    ("hecke --p 2 --truncation 64", 0, "",
     "0705d2aa4805020580ad547ee166cca42120231c8a0bcb31dd289cf5416ff9d5"),
    ("theta --t 2.0", 0, "",
     "2c31833a703bb95dd4097c30f29d03bd861100b3d2f428e6fd37d41999326fc3"),
    ("lseries --character mod4 --s 2", 0, "",
     "746e7e2dabc383be0943335a5a8bf2c013ff36642c04ed8a51560aca5a42f3f2"),
    ("frobenius --d -1 --pmax 1000", 0, "",
     "c48348ccad1d0f31829792e4d414ae91308dded2345e3c1cdf69b0748926632c"),
    ("trace --group S4", 0, "",
     "3941a5d5c0fd977e4c089d941308e6d9293015cdd3771347a49442a60c359af8"),
    ("trace", 0, "",
     "12b0b0152523e64b3a2e78e820b0606468ff547925b9fbdd5a6b5a20ee56ce52"),
    # options, regimes and usage errors
    ("fl-verify --p 3 --a 1 --b 3 --window x", 2,
     "hensel: error: --window must be auto or an integer, got 'x'\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fl-verify --p 3 --a 1 --b 3 --window 0", 1, "",
     "31e8d9c4d4e3d8bbf2962a01209c9ac8b89c9a1df5530e2990abd3c45905c895"),
    ("fl-verify --p 3 --a 1 --b 9 --window 1", 0, "",
     "606c8dde09f71078bd233843dc062ae0dc3ff1b94173327469ea9729975083c8"),
    ("fl-verify --p 3 --a 0 --b 3", 0, "",
     "420107b07bb68778229ce11d00d734baf547fd29bde9727243fc69ce6548e48f"),
    ("fl-verify --p 3 --a 1/3 --b 3 --kappa 0", 0, "",
     "7f485e4dfe2cddcdb6a7095243a885edfa539eddf0d723d7e8c9e95782a2b249"),
    ("fl-verify --p 3 --a 1 --b 1", 0, "",
     "05f1c19b1a0a123b9d2e7b3be9170c8a6108bf3c7121df4433c83d6152f15f86"),
    ("fl-verify --p 4 --a 1 --b 3", 2, "hensel: error: p must be an odd prime, got 4\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fl-verify --p 5 --a 1 --b 25 --delta 3", 0, "",
     "c3176aab735872f8b2510fe336d33d12b2f2d37ae9664d8cb49afc5a54271c3c"),
    ("sweep --p-list 3 --vb-list 0,1", 0, "",
     "5802e1ec9aa037c79ed92e76c5efcd36023b61abad15ffb3cc3423554cf12505"),
    ('trace --group "(1 2);(1 2 3 4)" --degree 4 --subgroup "(1 2);(1 2 3)"', 0, "",
     "3c2418579f9ee77bb5435ddd7e88dbd98c9ae4686455b1c93111615d6bd34abb"),
    ("trace --group A5", 0, "",
     "0868a39eecc8d6ba7cf53b57e5a48719e92a3e662cf94425dc150f9ddef5eb45"),
    ("trace --group D14", 0, "",
     "4c433bdc1f5f4c2beddb675df5536e7b68c9de4367c362e900541139bd7ad0bc"),
    ("trace --group S0", 2, "hensel: error: group degree must be at least 1, got 0\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('trace --group S5 --subgroup "(1 2 3)"', 0, "",
     "4bc09602f52610e81c2fa03840e80659de24c276f4b4703c5cfd2769a21ef3c1"),
    ("trace --group C12", 0, "",
     "d7244a68012fda7d967fb8da032874ddefa6c6f1116eb9a0ff0b30ab86a86d6c"),
    ("frobenius --d 5 --pmax 10", 0, "",
     "5ef28f7b46f39134da4f3b545cf5a013d45ee2f861a2822cd50731a46ac32ce4"),
    ("lseries --character trivial --s 3 --nmax 120000 --pmax 12000", 0, "",
     "0c1e3140755acc8472eec6d132d77e9c5350d35d4316170425f044e5b9394579"),
    ("frobenius --d 2 --pmax 3000", 0, "",
     "2a34016ed2dbc267c3c34e28ed702aa3c38557dfe1e35b92564596428d89802f"),
    ("hecke --p 3 --truncation 100", 0, "",
     "6b97733baa1acf56ea3b312dfb028f0911e0920d39d416d582127f8e88560e9f"),
    ("sweep --p-list 3,5 --vb-list 1,2 --kappa 0", 0, "",
     "6a4d71e57456fd2d9a335711c8cefa33fb779d5802f09f8d0dbcb31fa634bd7f"),
    # groups of degree 1 and 2
    ("trace --group C1", 0, "",
     "5a821a16454b78ccb4eb70370a543aa0b250ac39e4dee246a5d5ddd01f9d6d32"),
    ("trace --group A1", 0, "",
     "18c433737cb002c47b893c93dce0f53153c42196eec36fee7ba5077e509acda1"),
    ("trace --group A2", 0, "",
     "4e688de26ce11c7cab610f93e53d9b072a151a76cdda777214812ae39db81ead"),
    ("trace --group S1", 0, "",
     "5fbaf18076ac098f739dc66613355c86f00f02e4d6492a8b177181540f2cd37c"),
    ("trace --group S2", 0, "",
     "23c3e4a5591de51de64437677d1904e8ac5d92ccbed8cbd3bc7ebca653797c7f"),
    # sweep defaults and a bad prime
    ("sweep", 0, "",
     "390d713a1dde92e3b30b6b974afd4eb2b29e4fd4e106e4f64daa0c73a611ff5c"),
    ("sweep --p-list 4 --vb-list 1", 2, "hensel: error: p must be an odd prime, got 4\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # cutoffs below their floors, and at them
    ("theta --t 1 --truncation -3", 2, "hensel: error: --truncation -3 is below 1\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("frobenius --d -1 --pmax -3", 2, "hensel: error: --pmax -3 is below 2\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("lseries --nmax -5", 2, "hensel: error: --nmax -5 is below 1\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("lseries --pmax -5", 2, "hensel: error: --pmax -5 is below 2\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hecke --p 2 --truncation 1", 2, "hensel: error: --truncation 1 is below 2\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("theta --t 1 --truncation 1", 0, "",
     "aee33038395045bc8317ea44772fcf2e8ce4ab8b8b484c65d6293ba32aa79389"),
    ("frobenius --d -1 --pmax 2", 0, "",
     "9fcbfc8ed9a9647682a317106e77c062c1b4570ba4bb5c1bcc5106829797bdf3"),
    ("lseries --nmax 1 --pmax 2", 0, "",
     "cb55b0dc51912e7bca8e67e2d50ce8870125ba921c12f272b67b303ae7144a2a"),
    ("hecke --p 2 --truncation 2", 0, "",
     "2673fb1e4b3ee376e4d13e7d0419fd2ae268179d71954d8e51642277cfd64fc6"),
    # non-finite floats, and bounds as large as the values they compare
    ("theta --t nan", 2, "hensel: error: --t nan is not a finite number\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("lseries --s inf", 2, "hensel: error: --s inf is not a finite number\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("theta --t 1e-6", 0, "",
     "0501c519e50adb2f4cf1468a80663da5fb1a126f28aa9adee33a6254f2565a1d"),
    ("lseries --s 1.1", 0, "",
     "54994550df7ea430d0b2753501e5d7cd0dc6dac143fa33b5798b86cc9f07a2d6"),
    # one past the theta ceiling and the fl radius bounds
    ("theta --t 1 --truncation 1000001", 2,
     "hensel: error: --truncation 1000001 exceeds 1000000\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"fl-verify --p 3 --a 1 --b {3**101}", 2, "hensel: error: val(b) 101 exceeds 100\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fl-verify --p 3 --a 1 --b 1/27 --window 51", 2,
     "hensel: error: --window 51 exceeds 50\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sweep --p-list 3 --vb-list 1,101", 2, "hensel: error: --vb-list 101 exceeds 100\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # a subcommand and an option that are gone: argparse's usage error
    ("orbital --p 3 --a 1 --b 9", 2, USAGE + INVALID_CHOICE.format("orbital"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("orbital --p 3 --a 1 --b 3 --kappa 1", 2, USAGE + INVALID_CHOICE.format("orbital"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("orbital --p 3 --a 1 --b 3 --window 0", 2, USAGE + INVALID_CHOICE.format("orbital"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fl-verify --p 3 --a 1 --b 3 --no-saturate", 2,
     USAGE + "hensel: error: unrecognized arguments: --no-saturate\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--format csv fl-verify --p 3 --a 1 --b 3", 2, USAGE + INVALID_CHOICE.format("csv"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--format table theta --t 2", 2, USAGE + INVALID_CHOICE.format("table"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def mask_timings(out: str) -> str:
    return re.sub(r'("elapsed_seconds": )[0-9.e-]+', r"\1<s>", out)


@pytest.mark.parametrize(
    "command, code, stderr, digest",
    PAYLOADS,
    ids=[re.sub(r"[^\w.,/-]+", "_", row[0]).strip("_") for row in PAYLOADS],
)
def test_payload(capsys, monkeypatch, command, code, stderr, digest):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(shlex.split(command))
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, stderr)
    assert hashlib.sha256(mask_timings(captured.out).encode()).hexdigest() == digest
