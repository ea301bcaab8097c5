"""Pinned output bytes: the SHA-256 of stdout and the exit code of in-process
`voljump` runs.

A change that moves output bytes on purpose updates the digest here and
names the moved output in CHANGES.md; any other digest change is a
regression.
"""

import hashlib

import pytest

from voljump.cli import main

PINNED = [
    (("verify",), 0, "7562a8346a9534280585418c52c471c2ae6fe584a2342dc33d948122ab49b8eb"),
    (("nef-verify",), 0, "b6e40e094509b81d23c542653991d26af4decf92b7beae01ad61891bda66807b"),
    (("report",), 0, "6eabbae1ab8bf9b1141428dc92b1bb05af35604d35535e2634a4ed3855ecc775"),
    (("nef-table", "--format", "md"), 0, "e59f3b6f9737cfbf7890915de67981d1fbeae092190e1198be005c4c44c9fd03"),
    (("nef-table", "--format", "csv"), 0, "289ea3ed8512973cad213d020e7e9cfb8542351691187ae8dc829b4bd6b17bde"),
    (("nef-table", "--format", "json"), 0, "bf1c4364c98b6b71d75a2a6b9669689125d739855ea5ce4630b6420e46870c5e"),
    (("enumerate", "--d", "6"), 0, "5c38d598106cec4fcd4a7e85165fb4fe27c93b69ac52c9bb0ce4ad83040f43bc"),
    (("enumerate", "--d", "6", "--extreme"), 0, "0b21488fe4374d6070083b461a95eedafc972143383175193b8eb2bd42361d7f"),
    (("eigen", "--format", "json"), 0, "f426141ffdf2f356dad4330645956f2c4735a4e192b837d71c9d17101290b353"),
    (("charpoly", "--format", "json"), 0, "84e4ba5a3aa0ab12dab63ad24c79c2db335447525eb02b09f975281d5d260c9a"),
    (("orbit", "--format", "json"), 0, "61ce2e65fb1a4d87e928fa8c4b611aad8893716c9434207bf102b9d04cd2e556"),
    (("dump-matrix",), 0, "5f72cbe010b4f478d6284bd33b817d8cfb1133113796e01bf8d2c5c29fa27d2b"),
    (("charpoly",), 0, "4e161c1f30650a637fc37d776f67b1d81dfab4d5eaa7d93c030197b00b20c861"),
    (("eigen",), 0, "096b8bd9524dcacc40de1790f3fab3b784714564a8210cda2106ecd3854d7b09"),
    (("orbit",), 0, "d7bacf968623725a48f1742073820bd006fc5e5d4701044e7bee236f9c98094c"),
    (("dump-matrix", "--format", "json"), 0, "b229b198f91a8064c440e324b1623a81be816e22cff690bc6f454fd92cd2e159"),
    (("enumerate", "--d", "5", "--format", "json"), 0, "4b16bc6b022fbe69828f33b3bd6fe81f7075d94ac8afb02aa02499ea538ddb8f"),
    (("enumerate", "--d", "6", "--extreme", "--format", "csv"), 0, "9dccf505ccc860fee238c1ad191fb5758fb6f062016b9ac9391ea8041ab4335c"),
    (("nef-table", "--precision-digits", "20", "--format", "csv"), 0, "289ea3ed8512973cad213d020e7e9cfb8542351691187ae8dc829b4bd6b17bde"),
    (("report", "--precision-digits", "20"), 0, "663b3e7ff5770735c6d599a94b84840c8664e7f656e352a6bf3ff7a5b837f486"),
    (("report", "--precision-digits", "400", "--orbit-horizon", "400"), 0, "3cfb9b386880b8b80b858db6c5e51e035c3bffdc5a23574ba0431f258ed5ddbd"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED, ids=[" ".join(p[0]) for p in PINNED])
def test_output_bytes_are_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
