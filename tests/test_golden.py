"""Golden reports: the sha256 of stdout and the exit code of cheap CLI runs.

The digests pin the byte-identical report contract across commits: a change
that alters any of these reports, even in whitespace or ordering, fails here.
When a report changes on purpose, record the new digest together with the
reason in CHANGES.md.
"""
from __future__ import annotations

import hashlib

import pytest

from starcob.cli import main

GOLDEN = [
    ("build --n 4", 0, "d3496217d235a0043e168ff0088996485b77de73150cf4c5664a68e237034700"),
    (
        "dump strings --algebra A --n 3 --max-len 5",
        0,
        "54cf9e3a2a36506ddb54334404ee86848dedcaa4da1b4697c3160ac8ccc1a523",
    ),
    (
        "dump strings --algebra B --n 3 --max-len 5",
        0,
        "e36350be8e63b41af742460a3e57dd6b2ab8aac34b6df8f01fc8bfd555d195ed",
    ),
    ("verify ainfty-a --n 3", 0, "2848f16f7ce4811002b8ca7538c32824879b3e647a842830bfbdc36122b28834"),
    (
        "verify ainfty-a --n 3 --inject-fault drop-mu2N:1",
        1,
        "73fef7e783a33ac19dfbacd2b3153c7441d9b2bab6f03cd15acb36ec0eb10363",
    ),
    ("verify ainfty-b --n 4", 0, "c45f41d54227e6c12d168b1fbddf79a7033fff1de7ef3f86111fb281dc94fe85"),
    (
        "verify homotopy --n 3 --max-len 6",
        0,
        "13a6122b1d66d1d87957ea0be64259d1b111b578164e02a272645527193f4bed",
    ),
    # The failure names the first failing string and both sides.
    (
        "verify homotopy --n 3 --max-len 6 --inject-fault break-h",
        1,
        "1018ac14ba021e565e4f13684ac9daddde916d218fd9e4d2504992603be3fcc6",
    ),
    (
        "cohomology --algebra A --n 5 --format csv",
        0,
        "6f3b36fc22bcf95a1a992b146181aac7b974cbc0c704462785ae2eac2af685d2",
    ),
    ("verify homotopy --n 3", 0, "cbff837c4d4f7ae50dffa66e706ce5589541343a2317f002f9814f1217deac84"),
    (
        "verify homotopy --n 4 --max-len 7",
        0,
        "148012380972180d9ea7ac774ecbe56978840507423873ce0acef921e181da54",
    ),
    # Recorded while the homotopy sweep still checked every string, before it
    # checked one string per rotation orbit.
    (
        "verify homotopy --n 4 --max-len 8",
        0,
        "3b53033062655962150130cd2d60bab1857d2cfdacac9f4f483bd0787b9d0cda",
    ),
    (
        "verify homotopy --n 5 --max-len 8",
        0,
        "7cbcaf59b11f11c6d2526e7a03ebd4ca0f67b6801c2cf5321e23dd723fb8e24c",
    ),
    # The first A windows past arity 4N - 2.  They gave 396 violations (exit
    # 1), and at length 13 a "both left- and right-extended" error, while A
    # carried a j = 2 operation mu_{4N-2}; with mu_{2N} as A's one higher
    # operation they are clean (tests/test_deformation.py shows why).
    (
        "verify ainfty-a --n 3 --max-arity 11 --max-len 12",
        0,
        "1b40acbfc6e7d7a1e11e9ac91bfe416fee80cf5b326fa96efc1b59eac2a318f8",
    ),
    (
        "verify ainfty-a --n 3 --max-arity 11 --max-len 13",
        0,
        "59b134ba5459b5fe7d194a01fcf0aeef0065b503f96ce048d08fa8cb2cd2836f",
    ),
    # The grading report records the window of each algebra in its config.
    (
        "verify grading --n 3 --max-arity 10 --max-len 13",
        0,
        "6998c426a754c3d39c05bf4a79394fa2c6628f4bf4f5acb4f7666b5a36fd4e6b",
    ),
    (
        "verify ainfty-a --n 4 --max-arity 15 --max-len 16",
        0,
        "7a7015cde57c1efe7f40e49a96f7ac2703435edb22fdf4a7248f5c4d22b53ce7",
    ),
    # A B window that composes two higher operations, mu_N(.., mu_N(..), ..).
    (
        "verify ainfty-b --n 4 --max-arity 7 --max-len 10",
        0,
        "b6687378f58fc07cbc60556bde4aa7543eb61fa266bfb8f7bf0f729aa0e9567d",
    ),
    # The last centered A component at N=4, and a clean B sweep at N=5:
    # both recorded before the relation sweep ran on interned word ids.
    (
        "verify ainfty-a --n 4 --inject-fault drop-mu2N:7",
        1,
        "a679a4469813366513218e33ce15f058f427502c868429ab9c67251157fae624",
    ),
    ("verify ainfty-b --n 5", 0, "988ec0a414647b6de92b299bda4700861cc083b87372596934b323e349715d0d"),
    # The windows the relations benchmark runs, the frontier A window, and
    # two drop-mu2N components of the N=3 control: recorded while every
    # relation and grading sweep still checked tuples entered at every node,
    # before they checked one tuple per rotation orbit.
    ("verify ainfty-a --n 5", 0, "82a6f7f6d03a7ce352cf02e7f14c6f1a0d4d3eccd664a47d745a222cbac7dec8"),
    ("verify ainfty-b --n 6", 0, "fc77c490bea63655206d3ef607c9ec5efc2681d38b795aa20b5d403ff36bef13"),
    ("verify grading --n 6", 0, "b1aded67eaf115380a45a4ec707f756f27879d9604225c147daf95b086b5521a"),
    (
        "verify ainfty-a --n 3 --inject-fault drop-mu2N:0",
        1,
        "fdbdb30a2f3b42de35c40b2626feccf6ab833606cea0a23e52c7121dbbbd50b1",
    ),
    (
        "verify ainfty-a --n 3 --inject-fault drop-mu2N:4",
        1,
        "b5136c03afe7238ee2195e0a8cc538e80158c56639efd648ff8b4088876fcd7b",
    ),
    # The rest of the relations benchmark's windows and of the N=3 control's
    # components, recorded while relation_sum classified every split of every
    # swept tuple, before it read the operations off the op table.
    ("verify ainfty-a --n 4", 0, "3fe3d5a5103a1b808a177878bbe144ddc5688b14b339148f7dddb45dcbc291bb"),
    (
        "verify ainfty-a --n 3 --inject-fault drop-mu2N:2",
        1,
        "81b993a6c51d3818b61374173ba04f4bacaea9708fc86aa23c15862b1139a584",
    ),
    (
        "verify ainfty-a --n 3 --inject-fault drop-mu2N:3",
        1,
        "e182635bb8f1af5f7bbbcace09bb548c9764cd777fc7bf447106aa4f20ba8122",
    ),
    (
        "verify ainfty-a --n 3 --inject-fault drop-mu2N:5",
        1,
        "7ee5627273748b389429a398d5ae45648c689e1af9ea4ff59aa0148d3339b328",
    ),
    (
        "verify ainfty-a --n 8 --max-arity 31 --max-len 34",
        0,
        "f1f604bdb44e8e70552a123bf4fd78e9628d67643e39e3769c9620fdfc139d51",
    ),
    # Larger cohomology tables, recorded while the differential still tried
    # all 2N letters per term and B-words were graded letter by letter.
    (
        "cohomology --algebra A --n 32",
        0,
        "a4f62ec28dafbeb5e0c695886dd710feab657f6221426f6d64ea917bec45aecf",
    ),
    (
        "cohomology --algebra B --n 32",
        0,
        "834d1ea2a201b4a50a20dd81b192c6a4fce7994f0ebc6fab0f8ffdfb033b1b01",
    ),
    (
        "cohomology --algebra B --n 128 --format text",
        0,
        "77059bd86d99498ad96a90e58b83faaa6f8fb9e94f229c92c0e4a3ccbff4bf2a",
    ),
    # Every format that reads the table's cells, recorded while the table was
    # a list of cells with rendered witnesses and the JSON report went
    # through json's indented encoder.  The first three hold an error cell,
    # which has no dim and no witnesses.
    (
        "cohomology --algebra A --n 3 --n-max 12 --j -4 --trunc 1",
        0,
        "949c0a37e2d932721a58357a89d01b4897ea83e0b5314b74eca2bb51a22991b6",
    ),
    (
        "cohomology --algebra A --n 3 --n-max 12 --j -4 --trunc 1 --format text",
        0,
        "fda490f3f1b44eecedd9362aad889b9febc7131a15846d6582730692a573c46d",
    ),
    (
        "cohomology --algebra A --n 3 --n-max 12 --j -4 --trunc 1 --format csv",
        0,
        "0ea78c6eaf628f9252081bfe105b2d5300390e3cb52b02ca2015fe19efc65273",
    ),
    (
        "cohomology --algebra A --n 32 --format text",
        0,
        "8d61e4d666a437e3b84ddadaf095652e87553c87bc683ce0b76401f0c5892265",
    ),
    (
        "cohomology --algebra B --n 4 --j 0 --j -1 --j -2 --j -3",
        0,
        "e6cef1b6d1c6cdeea2643674c96ca31c1d54267aeb8d7349952f8a308eb6a78f",
    ),
    # B-word renderings, recorded while a B-word's letters were walked node
    # by node, before they were read off its run of weight slots.
    (
        "dump basis --algebra B --n 4",
        0,
        "d5b131263bf444676fb20e1d6cb90afdde5720086f2f897362f12fe4c9ae478a",
    ),
    # The deepest first failure: B's under break-h is r1* 23 times then s3*,
    # so this pins the depth-first order of the reduced sweep; and the leading
    # block marks of a dump, which read the block rule.  Both recorded while
    # the block rule kept a set of followers per letter.
    (
        "verify homotopy --n 3 --max-len 24 --inject-fault break-h",
        1,
        "85f6019eb7613794a368f1752a74e554a31067f289aea79247b84cccccb3b917",
    ),
    (
        "dump strings --algebra B --n 4 --max-len 6",
        0,
        "9143cb62f0f022139bced7fb6f3be8ceecf5c762afad0b219d27b593ec2f2048",
    ),
    # The special elements, whose items are unchanged since that change.
    # Their config no longer records a max-len: they never depended on one.
    (
        "dump special --algebra A --n 4",
        0,
        "cd79a9e004919f7fb1aad2d5e96ca350c7e24e76db101be52d900c795f4c6940",
    ),
    (
        "dump special --algebra B --n 4",
        0,
        "8f4d852eface0e360e630249d5116c42b7d66590be053715120375404fd04e28",
    ),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(argv, code, digest, capsys):
    got = main(argv.split())
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
