"""The byte contract of the command line: the exit code, the stdout and
stderr bytes and every file of a fixed chain of commands, pinned by sha256.

Every command runs through ``cli_main`` in a temporary working directory
with relative paths, so no output names a directory of the run. The studies
are a 200-sample diffusion study (16/64 nodes) and the 60-sample beam study,
whose outputs are the same bytes at one and two BLAS threads; a 256-row
ensemble's are not (see the README's Determinism section). A changed digest
is a deliberate edit, like the pin in ``test_api.py``.
"""

import hashlib
from pathlib import Path

from bifidelity.cli import cli_main
from bifidelity.snapio import read_snapshots, write_snapshots
from bifidelity.snapshots import SnapshotMatrix


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_columns(source, ids, path):
    """Write the columns of the snapshot file ``source`` named by ``ids``."""
    full = read_snapshots(source)
    cols = [full.sample_ids.index(s) for s in ids]
    write_snapshots(SnapshotMatrix(full.data[:, cols], tuple(ids)), path)


def _study(run, p, rank, tol, every, n_sub, tau_flags):
    """The chain on the study with file prefix ``p``."""
    low, high = f"{p}.low.bfsm", f"{p}.high.bfsm"
    run(f"{p} decompose --rank", "decompose", "--low", low, "--rank", rank,
        "--out-id", f"{p}.id.json")
    run(f"{p} decompose --tol", "decompose", "--low", low, "--tol", tol,
        "--out-id", f"{p}.tol.json")
    need = run(f"{p} samples", "samples", "--id", f"{p}.id.json").split()
    _write_columns(high, need, f"{p}.skel.bfsm")
    all_ids = read_snapshots(low).sample_ids
    _write_columns(high, all_ids[::every], f"{p}.sub.bfsm")
    for fmt in ("bfsm", "csv"):
        run(f"{p} lift {fmt}", "lift", "--id", f"{p}.id.json", "--high-skeleton",
            f"{p}.skel.bfsm", "--out", f"{p}.hat.{fmt}", "--format", fmt)
    bound = ["bound", "--low", low, "--high-sub", f"{p}.sub.bfsm", "--rank", rank,
             *tau_flags]
    run(f"{p} bound", *bound, "--out", f"{p}.report.csv")
    run(f"{p} bound --two-tau", *bound, "--two-tau", "--out", f"{p}.report2.csv")
    run(f"{p} efficacy", "efficacy", "--high", high, "--low", low, "--rank", rank,
        "--n", n_sub, "--trials", 20, "--seed", 3, *tau_flags,
        "--out", f"{p}.ratios.csv")


def contract_digests(workdir: Path, capture) -> dict:
    """Run the chain in ``workdir`` (the current directory) and return
    ``{command: [exit code, sha256 of stdout, sha256 of stderr]}`` plus
    ``{file name: sha256}`` of every file left there. ``capture()`` returns
    the (stdout, stderr) text printed since its last call."""
    digests = {}

    def run(name, *argv):
        capture()
        rc = cli_main([str(a) for a in argv])
        out, err = capture()
        digests[name] = [rc, _sha(out.encode()), _sha(err.encode())]
        return out

    run("diff generate", "generate", "diffusion", "--samples", 200, "--seed", 1,
        "--mesh-low", 16, "--mesh-high", 64, "--out", "diff")
    run("beam generate", "generate", "beam", "--samples", 60, "--seed", 1,
        "--out", "beam")
    _study(run, "diff", 6, 1e-3, 10, 20, [])
    _study(run, "beam", 3, 1e-4, 6, 10, ["--tau-scale", "linear"])
    # refused runs: one line on stderr, nothing left behind
    run("refused out-id dir", "decompose", "--low", "diff.low.bfsm", "--rank", 3,
        "--out-id", "nodir/z.json")
    run("refused skeleton ids", "lift", "--id", "diff.id.json", "--high-skeleton",
        "diff.low.bfsm", "--out", "x.bfsm")
    run("refused tau count", "bound", "--low", "beam.low.bfsm", "--high-sub",
        "beam.sub.bfsm", "--rank", 3, "--tau-count", 0)
    run("refused tol zero", "decompose", "--low", "diff.low.bfsm", "--tol", 0.0,
        "--out-id", "z.json")
    run("refused n", "efficacy", "--high", "diff.high.bfsm", "--low",
        "diff.low.bfsm", "--n", 201)
    run("refused missing id", "samples", "--id", "missing.json")
    for path in sorted(workdir.iterdir()):
        digests[path.name] = _sha(path.read_bytes())
    return digests


# recorded with numpy 2.4 and its bundled OpenBLAS on x86-64, at one and at
# two BLAS threads
CONTRACT_DIGESTS = {
    "diff generate": [
        0,
        "7fe7f7e4d3062e139e6500563fbdb0d2bf143af6bb251a8401184af6ab70bb2d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam generate": [
        0,
        "b2ba83dd3d0b0f642d483ef172cef293c63892ae132b08ae167bf5e434bd1785",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "diff decompose --rank": [
        0,
        "6fb945cf89e3e8a82a328652d0abb874a636f1f276c7f48c5f641014194c2d64",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "diff decompose --tol": [
        0,
        "58c3b4751b860ffac939c25028bc0b87190660a501c9927d93832f2b07ab8b0e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "diff samples": [
        0,
        "cf4516f2a6e3ed2e5ce5b596caad67b96e318bf4c9d2c1be22b743f3c1704ecf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "diff lift bfsm": [
        0,
        "8253e0f94179a7c0642a2c39e9dd33965629b8645d2f4c5dc6d9e41664b404e4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "diff lift csv": [
        0,
        "636fc1d8f653e085695b46888f2bc9e6bc2e7a3690e143f5f7424afcf30cd2b3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "diff bound": [
        0,
        "a3e237f998f058b8030958fd8db0b013ba3a27e1c02b5e319783cedc820ba4ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "diff bound --two-tau": [
        0,
        "68d602be30143757592f5164c6b018e64e4082f1e2788bc32cf153937cf12680",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "diff efficacy": [
        0,
        "dd9fab3c53b4abd7216e95114b664331afdf6d91af666fccda50903cf219f9d5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam decompose --rank": [
        0,
        "4151eb7dedd77719b42c70faf0059d68e6a4369cd127338d3dcec1d67b66facf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam decompose --tol": [
        0,
        "f3d08ad7930f6e65f774a02299c955a2548b34a9c5d8f644548dde5e6c02b63b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam samples": [
        0,
        "e4ebb22af93a710d4add59ac9f160af5bdf287f5731466d9f7ce19171ae7ef31",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam lift bfsm": [
        0,
        "7e6f6809e1956df6393b2ed297c7a0249f376d6888e880d21273fadc9dea22f6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam lift csv": [
        0,
        "bd91e060f7df6ad2cdda408ba45b26202cfd66f8bd5c0f1d57b5d74a1af68685",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam bound": [
        0,
        "09002df6957306ae025147be058387fac24da8186850ee0e5068c7af3f4ba6e3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam bound --two-tau": [
        0,
        "2f2c46ea9f47c78b9db95f589cffdadc24f0bcb1f18fccdd1089f564d923138c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "beam efficacy": [
        0,
        "3df66a8fff23c3b96c4c3ad15cceb909c4d9cf30b5eaabcb093731ab46dd5fbe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ],
    "refused out-id dir": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8c4e867eb8c0e09ca0a07ca32b86a8217c80bbc785a33344c31c5ee59fe9a1c4",
    ],
    "refused skeleton ids": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f61b28458234c270d69d155bcd2d3e28bc3afc0e873d19e89b33a949d409e901",
    ],
    "refused tau count": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "47f11aa4d32abda9011813f9878513ad6f6a853f341a7c95aa5783ec1a1ae197",
    ],
    "refused tol zero": [
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3919e6e82c452acf3eb4bce00515b0100146dd8ee739016000acc83552014f3a",
    ],
    "refused n": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3e5b1b557f989457bda54e3fa913ce9f20073206e9bc320159caf10c39a36bc5",
    ],
    "refused missing id": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b684fe211a368bb671580cacf85bf5d2a78fb5601ae42736a8b82b4370e575ee",
    ],
    "beam.hat.bfsm":
        "2ee1136f56bc56666c3c237a74d81c2b1ea1d731e8ba1b9b6a4cbdc6dc60978e",
    "beam.hat.bfsm.json":
        "6d6d0ea42e07bea57856f6a2cadf6e17a30e94fbb73bafa406ae64366b8ba712",
    "beam.hat.csv":
        "d209e6d0b9b86b861d9f993bbfb9eb9df03477448b831aaa61b9d9d1df0635b1",
    "beam.hat.csv.json":
        "6d6d0ea42e07bea57856f6a2cadf6e17a30e94fbb73bafa406ae64366b8ba712",
    "beam.high.bfsm":
        "aad6f73e2f8ebb13d37651b0e328d74c8684d1a69f26f55da7d48d3a10320ac9",
    "beam.high.bfsm.json":
        "afb2a81b3cd15e34a50b21fade35bc01159e37bf9fc61eb0dffb203b83d8e9af",
    "beam.id.json":
        "b050d5ef6c667434eeb566aac3cdd3f0091b36c686bd69c268e633a24b37b812",
    "beam.low.bfsm":
        "616a092eb4527b2cde173fb05599ef74486930e9ef0a50a441e14c6258f5a111",
    "beam.low.bfsm.json":
        "afb2a81b3cd15e34a50b21fade35bc01159e37bf9fc61eb0dffb203b83d8e9af",
    "beam.manifest.json":
        "267a5486b021bce1219a6fc2232b80f6e54592484fea2adbb9f9724434529cce",
    "beam.ratios.csv":
        "88f950b9eab1f73d38e45e8883e3145a26597a8e273a0c2277c40c71e0c442a0",
    "beam.report.csv":
        "ccf214ab27db3c1991ad90f0598b88a79e8a6834aa2edb664e3bf77200477c48",
    "beam.report2.csv":
        "4146244a736b185821171f710781dba7463ce88613f799fe847796a499b94fb3",
    "beam.skel.bfsm":
        "484868d33c02670ce892fccef8c8e6937cfa7f9a9f1288b02b9533f29c645506",
    "beam.skel.bfsm.json":
        "26692e972650dd63b326b84a5f78361b88601253a947a17ed90900d09a6c42ae",
    "beam.sub.bfsm":
        "f645fe19506fb11c5055fd48df6ac6efc399fd653daa0d37a628df869e5c328e",
    "beam.sub.bfsm.json":
        "062a0bb1fbfb4e0b5f3cea1d1a9fec32a4e8c51989c6e18f1703f5dc2facbf36",
    "beam.tol.json":
        "d520738435f7e452d0ed8f7fb981ff2a5c91a0cca47de9c861eddd7fdf1309bd",
    "diff.hat.bfsm":
        "da92c8730dd90174b793f6355a835aa9df6c81b65dacd569bf25ff7836bb00d2",
    "diff.hat.bfsm.json":
        "4473eaff0b890854b41b4f61f23f8073c92b147f0ba105f708a032072989f9a3",
    "diff.hat.csv":
        "70e318dfc12f3de763bee54f28001219663086a25af6e0b37955812b667b2de4",
    "diff.hat.csv.json":
        "4473eaff0b890854b41b4f61f23f8073c92b147f0ba105f708a032072989f9a3",
    "diff.high.bfsm":
        "d1bcee4f1880e66b06e942637b48fd580706e16c934b2bacb9cce8bea07d156a",
    "diff.high.bfsm.json":
        "183828c615f9736f10b381c558c86db1e84909d56ea126bf0ef6e351f8d41ba1",
    "diff.id.json":
        "7c7ef24c29ca0fe0c9c36ac590addb9b4a4fa674b94f4a570e6fd9e44a44c298",
    "diff.low.bfsm":
        "b46ff20d4959326d9089a6063d998b8dd52394f3be17685c1bd916996951d842",
    "diff.low.bfsm.json":
        "183828c615f9736f10b381c558c86db1e84909d56ea126bf0ef6e351f8d41ba1",
    "diff.manifest.json":
        "0868e97a47e0675347e8c595f95606d8b91acc60ffd945f09dab4c3e146e2ec6",
    "diff.ratios.csv":
        "f642192760038ce6d6e66cc07a22a7866f2ba6300df2405dac9ef2e00dff4263",
    "diff.report.csv":
        "6625e86504b3d022e9c72c9191b47416e82ab6f0e58e565a9f2724394878f47c",
    "diff.report2.csv":
        "7306a43d1da23f4b9934a79089d6f2ad999095af8576850bd893c893190f61e8",
    "diff.skel.bfsm":
        "3236b66a6cf4b19bdf80aa60f40677a48ea64ff7be6fa6ab6d263706c9e80e27",
    "diff.skel.bfsm.json":
        "fdcdc6b13d903df1a774be0e95095db28c95351a397c090b53a64a391ccaa37c",
    "diff.sub.bfsm":
        "fd1e5df86351687d4030496f23e3d20ff0cfd8eb75c4739ed3abc06c404836d6",
    "diff.sub.bfsm.json":
        "3a327ba43fb32f38da5c5c72f8597ae152eab7f9978aeaeff590c04edbde477d",
    "diff.tol.json":
        "2c007c5615acf583735f762374c542b82bb06a784cc4b6a4121e993f55d5415f",
}


def test_cli_bytes_are_the_recorded_ones(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def capture():
        got = capsys.readouterr()
        return got.out, got.err

    assert contract_digests(tmp_path, capture) == CONTRACT_DIGESTS
