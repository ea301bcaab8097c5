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
    (("verify",), 0, "247145738a6bd2b6e0b51d319784af75fa7fba8719436b725945e6491f29ca2f"),
    (("nef-verify",), 0, "3ca5c645b93dad6264081d1a36b9d38c2d066a7900db0319ec5cc913ee91a516"),
    (("report",), 0, "a6856aee37808d936d265818a12f9e60375c0fe62142f6374a4bea6fcb266aad"),
    (("nef-table", "--format", "md"), 0, "e59f3b6f9737cfbf7890915de67981d1fbeae092190e1198be005c4c44c9fd03"),
    (("nef-table", "--format", "csv"), 0, "289ea3ed8512973cad213d020e7e9cfb8542351691187ae8dc829b4bd6b17bde"),
    (("nef-table", "--format", "json"), 0, "ed448481c745802ccf6fc96aa665e076566ea53026171d97841d0b0f2c94a789"),
    (("enumerate", "--d", "6"), 0, "5c38d598106cec4fcd4a7e85165fb4fe27c93b69ac52c9bb0ce4ad83040f43bc"),
    (("enumerate", "--d", "6", "--extreme"), 0, "0b21488fe4374d6070083b461a95eedafc972143383175193b8eb2bd42361d7f"),
    (("eigen", "--format", "json"), 0, "85af21e2d7407769c1c0614d9e6bda54152d8dae29e0d0cb7a9bc26d9318d6de"),
    (("charpoly", "--format", "json"), 0, "84e4ba5a3aa0ab12dab63ad24c79c2db335447525eb02b09f975281d5d260c9a"),
    (("orbit", "--format", "json"), 0, "23ec0223a67212cbf15a40e476ebc1a263890a813fcba25fb86b3c07478aee8d"),
    (("dump-matrix",), 0, "5f72cbe010b4f478d6284bd33b817d8cfb1133113796e01bf8d2c5c29fa27d2b"),
    (("charpoly",), 0, "4e161c1f30650a637fc37d776f67b1d81dfab4d5eaa7d93c030197b00b20c861"),
    (("eigen",), 0, "096b8bd9524dcacc40de1790f3fab3b784714564a8210cda2106ecd3854d7b09"),
    (("orbit",), 0, "d7bacf968623725a48f1742073820bd006fc5e5d4701044e7bee236f9c98094c"),
    (("dump-matrix", "--format", "json"), 0, "b229b198f91a8064c440e324b1623a81be816e22cff690bc6f454fd92cd2e159"),
    (("enumerate", "--d", "5", "--format", "json"), 0, "4b16bc6b022fbe69828f33b3bd6fe81f7075d94ac8afb02aa02499ea538ddb8f"),
    (("enumerate", "--d", "6", "--extreme", "--format", "csv"), 0, "9dccf505ccc860fee238c1ad191fb5758fb6f062016b9ac9391ea8041ab4335c"),
    (("nef-table", "--precision-digits", "20", "--format", "csv"), 0, "289ea3ed8512973cad213d020e7e9cfb8542351691187ae8dc829b4bd6b17bde"),
    (("report", "--precision-digits", "20"), 0, "6a5f39d6bd8a603fd11aebfc0d11621ae93ff803c9fe332cd374a3fe61fd4c72"),
    (("report", "--precision-digits", "400", "--orbit-horizon", "400"), 0, "5fea281bc29390dd4dd02de091d707fbf493ae0f3f9da1277970f68efa6143b6"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED, ids=[" ".join(p[0]) for p in PINNED])
def test_output_bytes_are_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
