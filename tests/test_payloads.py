"""Payload identity: the exit code, stderr and stdout of fixed commands.

Each case runs `cli.main` in process and compares its exit code and stderr
with the table, and the sha256 of its stdout with the table's digest.  The
run time is masked before hashing: `elapsed_seconds` in JSON and CSV, and
the seconds in the `--format table` header.  A change that alters a payload
on purpose updates its row and says so in CHANGES.md.
"""

import hashlib
import re
import shlex

import pytest

from hensel.cli import main

PAYLOADS = [
    # the README CLI block
    ("fl-verify --p 3 --a 1 --b 3", 0, "",
     "8add22b6863b50ab387409cef7c426f30eb308b2e6db7b1a29f78f63f2aca04f"),
    ("fl-verify --p 3 --a 1/3 --b 3", 0, "",
     "a98bf88a99f436c7dbec31778e22fe79a593133e6b604427c7a6ddc69907e255"),
    ("sweep --p-list 3,5,7 --vb-list 1,2,3 --kappa 1", 0, "",
     "4be114d7d915c1523952c71d3e0b6e911bd030f634edb9590c9f31440c1f3365"),
    ("orbital --p 3 --a 1 --b 9 --kappa 0", 0, "",
     "2f383d44367e4c7557bbda07ba5a8a1446b4e485a992b00fbf96cdecda58497f"),
    ("hecke --p 2 --truncation 64", 0, "",
     "806e6d4bd167e582e203f159d517127013916d27f8a1420244cb41085cf24c04"),
    ("theta --t 2.0", 0, "",
     "b810bc2a5782f21358020ecd4fc7052c4acbfdee1689bac309d72aa561e783b8"),
    ("lseries --character mod4 --s 2", 0, "",
     "ec2334ad3c0413b01b3cca81bebe8249da609c36797f620647115c9183ece771"),
    ("frobenius --d -1 --pmax 1000", 0, "",
     "880e40aa2cec3d021167f18894df33e0df1326ac7116aa2b93904f98cd47c0c9"),
    ("trace --group S4", 0, "",
     "bcfe23e20e5508bfc9ec523c3103cb6585179f108d8c2c47f02972550f61aec7"),
    ("trace", 0, "",
     "8acb65ee05392e603bf8dded15a31a8e510e3ebcdcc705e86c0790fccfca7278"),
    # options, regimes, formats and usage errors
    ("fl-verify --p 3 --a 1 --b 3 --no-saturate", 0, "",
     "0c4a78bb15da111690e9f8dc4ea060cdb9ac84e9727fa486630f5d4335ac2c10"),
    ("fl-verify --p 3 --a 1 --b 3 --window 0", 1, "",
     "c86749db64bc5f50cb2a2d8ae215da99028f4bf43259e61b5729b168d8609682"),
    ("fl-verify --p 3 --a 1 --b 9 --window 1", 0, "",
     "235c86b62f7cf490311077484a753a3e050129a4dd0709b95afc113acfab47bf"),
    ("fl-verify --p 3 --a 0 --b 3", 0, "",
     "fa23fe2711fd154f128dc359311fd6f8feefbfaa58fdf42914eac63b5033703b"),
    ("fl-verify --p 3 --a 1 --b 1", 0, "",
     "894a7fba5f22cc467c7f47051292b3f7793bc5ebcb29380bd8f4475fac7dbd3a"),
    ("fl-verify --p 4 --a 1 --b 3", 2, "hensel: error: p must be an odd prime, got 4\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fl-verify --p 5 --a 1 --b 25 --delta 3", 0, "",
     "a563f86042f9031a1651a71909708b1e623b77f36faeb89cf53c909e69be8084"),
    ("orbital --p 3 --a 1 --b 3 --kappa 1", 0, "",
     "bca154b07b56a0e673f870432cffb69ef3d81ec9aacce83a38876058a90d6cef"),
    ("orbital --p 3 --a 1 --b 3 --window 0", 1, "",
     "f0c00255831ed7b39bc302e9103e5d95a3dbb34dd4cb3851445ae81d1ecfc1de"),
    ("sweep --p-list 3 --vb-list 0,1", 0, "",
     "5514239dfd4c3948f1490c50340e011cc871f78a381dac1f9eb06888a07021a1"),
    ("--format csv sweep --p-list 3,5 --vb-list 1,2", 0, "",
     "0335e70f130c25bd5778435b7e2de75c1e5863e5135c8371df466ee8b16f3b94"),
    ("--format csv fl-verify --p 3 --a 1 --b 3", 0, "",
     "5dddd3346c95206160bb492f2837edab649d2102a30366bc8b4537fdbb74b8c1"),
    ("--format table fl-verify --p 3 --a 1 --b 3", 0, "",
     "276ed4e7a0592f9aa7748b9650161cd6b5f1a416e4f7129ffb284f8b8b639361"),
    ("--format table sweep --p-list 3 --vb-list 1,2", 0, "",
     "7d566501802bbcb1bc5536c755f6e67f73958e82e348da00c3fdb5f876335847"),
    ('trace --group "(1 2);(1 2 3 4)" --degree 4 --subgroup "(1 2);(1 2 3)"', 0, "",
     "26e396de4b4567c6ed655a8af37768d7a5beaca819b8d4c82a7be5ac3e40523d"),
    ("trace --group A5", 0, "",
     "b782388cb26a06cf592c02319299035780f429b8b7d0051d88cf12324b127bb4"),
    ("trace --group D14", 0, "",
     "cc6c3db2d261df029ce5d28890a978d6bfe1981b72fa72233e3e43a8f047d0f8"),
    ("trace --group S0", 2, "hensel: error: group degree must be at least 1, got 0\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--format csv trace --group S4", 0, "",
     "aeb221c97a5b1be82b6dfe562336a4d7a1b7ded20af282114e0d07a8ebb50797"),
    ("--format table fl-verify --p 5 --a 1 --b 25", 0, "",
     "436cdc83ed10046388cc3c45fcdffad962a56228ab9c168bf11964ebc471d83f"),
    ('trace --group S5 --subgroup "(1 2 3)"', 0, "",
     "e7b79b241835a90d2aed1c38527c0218779c6e3a277b3e505375765ea59c45a9"),
    ("trace --group C12", 0, "",
     "a33c19d4655440ffd366128175e66601d4daf006dfbd8991ec251324b1651a61"),
    ("frobenius --d 5 --pmax 10", 0, "",
     "ead035f8fcfd6b400b5b233d02580b27fa493e7ff54a36dd84d029d2f1a294f1"),
    ("lseries --character trivial --s 3 --nmax 120000 --pmax 12000", 0, "",
     "916339d9f49a2093fd5f2a3ec9737ac0940f8fd38da25b75460a271a01e80714"),
    ("frobenius --d 2 --pmax 3000", 0, "",
     "d2b687eb7562562106deb53a3d49ec69efc0ac5492d228ac9ec7252340c7e889"),
    ("hecke --p 3 --truncation 100", 0, "",
     "93bb511e87598747105fb508899600b25a9e552e62c7d649e5e775a0b0ff2351"),
    ("sweep --p-list 3,5 --vb-list 1,2 --kappa 0", 0, "",
     "6c156dce1c92bd9374943ef745551ab35eddc045871497b12c20a26981bb6045"),
    # groups of degree 1 and 2
    ("trace --group C1", 0, "",
     "f939ce7a1294172ed067aeb4fa7a3884c7d755f53a8e3b62d80a3dbb1e47972f"),
    ("trace --group A1", 0, "",
     "b1439540d256cc79f0264a64ef798b19c33c8ec8e3f122f5929aa1d168be1fab"),
    ("trace --group A2", 0, "",
     "323fa4e2ebd473e3ca626d878cb69264cd112a047b63bce90f550afbfac7ba74"),
    ("trace --group S1", 0, "",
     "550fd70de41a379d723ccc6956f41d8df00034c13153022bf78b2ccf737e3d70"),
    ("trace --group S2", 0, "",
     "91b3af59f4a4e97afb06664cf8784b08beb4d00a0f1de00ae9234202a004cb85"),
    # sweep defaults and a bad prime
    ("sweep", 0, "",
     "d515f91a33e94051d15338e4639874544bb9605762040b94801a3b80f6091f0e"),
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
    ("theta --t 1 --truncation 1", 0, "",
     "3368f0b957bd0f98c4e93fe67858bfab9ad4d81cd85e14a86d590b4a62bb20fe"),
    ("frobenius --d -1 --pmax 2", 0, "",
     "9a120599da5fa0d33b7d2608583286f1a1e19e9d4fa8ee44c6a020b645c5744c"),
    ("lseries --nmax 1 --pmax 2", 1, "",
     "39793d4672152b35b8f4c76d05cb30afba9d1b0c0c02818d89e4ba59b0b00544"),
    # one past the theta ceiling and the fl radius bounds
    ("theta --t 1 --truncation 1000001", 2,
     "hensel: error: --truncation 1000001 exceeds 1000000\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (f"fl-verify --p 3 --a 1 --b {3**101}", 2, "hensel: error: val(b) 101 exceeds 100\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("orbital --p 3 --a 1 --b 1/27 --window 51", 2, "hensel: error: --window 51 exceeds 50\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sweep --p-list 3 --vb-list 1,101", 2, "hensel: error: --vb-list 101 exceeds 100\n",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def mask_timings(out: str) -> str:
    out = re.sub(
        r'("elapsed_seconds": |^elapsed_seconds,)[0-9.e-]+', r"\1<s>", out, flags=re.M
    )
    return re.sub(r"\(\d+\.\d{3}s\)$", "(<s>)", out, count=1, flags=re.M)


@pytest.mark.parametrize(
    "command, code, stderr, digest",
    PAYLOADS,
    ids=[re.sub(r"[^\w.,/-]+", "_", row[0]).strip("_") for row in PAYLOADS],
)
def test_payload(capsys, command, code, stderr, digest):
    got = main(shlex.split(command))
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, stderr)
    assert hashlib.sha256(mask_timings(captured.out).encode()).hexdigest() == digest
