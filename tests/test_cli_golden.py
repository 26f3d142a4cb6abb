"""Golden CLI runs: a fixed list of commands, each run in process through
`cli.main`, with the sha256 of its (exit code, stdout, stderr) checked
against the hash recorded when the list was made.

A change that means to leave every output alone must keep every hash; one
that means to change an output updates that command's hash and says why.
Inputs are written under fixed relative names in the working directory,
so no temporary path reaches the output.
"""

import hashlib
import json

from invar.chern import chern_invariant
from invar.cli import main


def _term(kind, edges, coeff):
    sigma = len(edges)
    monomial = {"kind": kind, "sigma": sigma, "edges": edges,
                "free_hol": [0] * sigma, "free_anti": [0] * sigma}
    return {"monomial": monomial, "coeff": coeff}


INPUTS = {
    # the squared trace, which does not integrate to zero
    "sq.json": {"valence": [0, 0], "terms": [_term("phi", [[2, 0], [0, 2]], "1")]},
    "psi.json": chern_invariant((2,)).polarize().to_json_dict(),
    # out of order, with two labelings of one 3-cycle to merge
    "mixed.json": {"valence": [0, 0], "terms": [
        _term("phi", [[0, 2], [2, 0]], "3/4"),
        _term("phi", [[0, 2, 0], [0, 0, 2], [2, 0, 0]], "1/2"),
        _term("phi", [[2, 0], [0, 2]], "-1"),
        _term("phi", [[0, 0, 2], [2, 0, 0], [0, 2, 0]], "1/3"),
    ]},
}

# run in this order: decompose reads the i2.json that the chern run before it writes
GOLDEN = {
    "chern --partition 1": "7a428142acbd9c8ba045",
    "chern --partition 2": "c2c8a58b557d0f82aa59",
    "chern --partition 1,1": "bae57de3f81f584d285c",
    "chern --partition 3": "b0dce71011daf780b98a",
    "chern --partition 2,1": "0255f6df170f5d837dd7",
    "chern --partition 1,1,1": "eebdbbee1f05cfb15773",
    "chern --partition 2 --out i2.json": "6cc431ca49b5960aabb4",
    "canon mixed.json": "682dfb8fd7edd5b0c636",
    "decompose i2.json": "61f8572cff5b191eec71",
    "decompose sq.json": "74da78d3e53e27b96043",
    "oracle sq.json --dim 1 --trials 2": "ab3a3509bbd7b4181994",
    "oracle psi.json --dim 2 --trials 2": "a10aca359a967e181caf",
    "bergman --dim 2 --fubini-study --order 3": "0f3ac4bc7751e72bc0b3",
    "bergman --dim 2 --fubini-study --order 3 --format json": "971ec9ab3ec90ae98ea7",
    "bergman --dim 2 --symbolic --order 2": "9e8077c92e0c2ac5d09a",
    "bergman --dim 2 --symbolic --order 2 --format json": "a61f286e08914da96b44",
    "verify a1 --dim 1": "175481aaf11c9eca4105",
    "verify a2 --dim 2": "8b69411bd7dbc7e01c55",
    "verify a3 --dim 2 --trials 1": "0b658a748f98bfe76b6e",
    "verify linear --dim 1 --order 3": "c53f9ec886f7567ad45b",
    "verify chern-integrals --order 2 --trials 1": "ef0ec4a4fb9bebafc74f",
    "verify roundtrip --trials 4": "04a4c0720112175d38b5",
    "chern --partition 7": "f8db2c4e91a44008d784",
    "verify a1 --trials 1": "d1eadf8d2fd791f1fd04",
}


def _digest(code, out, err):
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:20]


def test_cli_outputs_match_their_golden_hashes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    got = {}
    for command in GOLDEN:
        code = main(command.split())
        captured = capsys.readouterr()
        got[command] = _digest(code, captured.out, captured.err)
    assert got == GOLDEN
