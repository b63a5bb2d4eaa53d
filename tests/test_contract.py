"""The behaviour contract: a fixed argv gives byte-identical results.

For every argv below the test pins the sha256 of the ``--json`` stdout,
the sha256 of the ``--cert-out`` file (argvs that write one) and the exit
code.  The argvs reach every subcommand, every ``rank-minimal`` method,
every ``count`` kind, the ``all`` routes of ``minimal`` and ``cutting``,
an ``omega`` certificate, a ``--scan-dim`` shard, a census and every
property suite, on towers with p = 2 and odd p and with e = 1 and e = 2.
A change that moves a pinned value changes the contract, and must say so.
"""

import hashlib
import json

import pytest

from rankmin.cli import run_command
from rankmin.suites import suite_names

CERT = "{cert}"  # replaced by a per-test file path

GF4 = "p=2,e=1,m=2,ext=1,1,1"
GF8 = "p=2,e=1,m=3,ext=1,1,0,1"
GF9 = "p=3,e=1,m=2,ext=1,0,1"
GF16_4 = "p=2,e=2,m=2,base=1,1,1,ext=1,2,1"


def _code(field, rows):
    return json.dumps({"field": field, "n": len(rows[0]), "k": len(rows),
                       "rows": rows})


def _sub(level, ambient, rows):
    return json.dumps({"level": level, "ambient": ambient, "dim": len(rows),
                       "rref_basis": rows})


C32 = _code(GF4, [[1, 0, 2], [0, 1, 1]])
FLAT = _code(GF4, [[1, 0, 0], [0, 1, 0]])
C9 = _code(GF9, [[1, 0, 3], [0, 1, 5]])
C9_FULL = _code(GF9, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
C9_AXES = _code(GF9, [[1, 0, 0], [0, 1, 0]])
C16 = _code(GF16_4, [[1, 0, 6], [0, 1, 11]])
B_LINE = _sub("E", 2, [[1, 1]])
B_AXIS = _sub("E", 2, [[1, 0]])
S_GF4 = _sub("F", 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
S_GF4_THIN = _sub("F", 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
S_GF9 = _sub("F", 4, [[1, 0, 0, 1], [0, 1, 2, 0], [0, 0, 1, 1]])
S_GF9_K3 = _sub("F", 6, [[1, 0, 0, 1, 0, 0], [0, 1, 2, 0, 0, 1],
                         [0, 0, 0, 0, 1, 0]])
S_EVASIVE = _sub("F", 4, [[1, 0, 0, 0], [0, 0, 1, 0]])


def _verify(name):
    return ["verify", "--suite", name, "--trials", "12", "--seed", "3",
            "--strict", "--json"]


ARGVS = [
    ["field", "--field", GF8, "--json"],
    ["field", "--field", "p=3,e=2,m=2", "--json"],
    ["wt", "--code", C32, "--json"],
    ["wt", "--code", C16, "--json"],
    ["grw", "--code", C32, "--json"],
    ["grw", "--code", C9, "--r", "1", "--json"],
    ["minimal", "--code", C32, "--r", "1", "--method", "all", "--json"],
    ["minimal", "--code", FLAT, "--r", "1", "--method", "all", "--strict",
     "--json"],
    ["minimal", "--code", C9_FULL, "--r", "1", "--method", "all",
     "--strict", "--json"],
    ["minimal", "--code", C16, "--r", "1", "--method", "all", "--json"],
    ["rank-minimal", "--code", C32, "--subcode", B_LINE, "--method",
     "criterion", "--json"],
    ["rank-minimal", "--code", FLAT, "--subcode", B_LINE, "--method",
     "support", "--strict", "--json"],
    ["rank-minimal", "--code", C9, "--subcode", B_AXIS, "--method",
     "definition", "--json"],
    ["rank-minimal", "--code", C9_AXES, "--subcode", _sub("E", 2, [[1, 4]]),
     "--method", "definition", "--strict", "--json"],
    ["maximal", "--code", C32, "--subcode", B_LINE, "--json"],
    ["cutting", "--field", GF4, "--subspace", S_GF4, "--r", "1", "--route",
     "all", "--json"],
    ["cutting", "--field", GF4, "--subspace", S_GF4_THIN, "--r", "1",
     "--route", "all", "--strict", "--json"],
    ["cutting", "--field", GF9, "--subspace", S_GF9_K3, "--r", "1",
     "--route", "all", "--strict", "--json"],
    ["evasive", "--field", GF4, "--subspace", S_EVASIVE, "--h", "1", "--t",
     "1", "--json"],
    ["evasive", "--field", GF9, "--subspace", S_GF9, "--h", "1", "--t", "1",
     "--strict", "--json"],
    ["evasive-max", "--field", GF4, "--k", "2", "--h", "1", "--t", "1",
     "--json"],
    ["linearity", "--field", GF9, "--subspace", S_GF9, "--json"],
    ["count", "--q", "2", "--m", "2", "--n", "3", "--r", "1", "--json"],
    ["count", "--q", "3", "--n", "5", "--r", "2", "--kind", "qbinom",
     "--json"],
    ["count", "--q", "2", "--n", "4", "--r", "2", "--kind", "qdelta",
     "--json"],
    ["count", "--q", "3", "--m", "2", "--n", "4", "--r", "1", "--kind",
     "r-minimal", "--json"],
    ["bounds", "--m", "3", "--k", "4", "--r", "1", "--json"],
    ["omega", "--field", GF4, "--k", "3", "--r", "1", "--threads", "1",
     "--cert-out", CERT, "--json"],
    ["omega", "--field", GF9, "--k", "2", "--r", "0", "--threads", "1",
     "--json"],
    ["omega", "--field", GF9, "--k", "3", "--r", "0", "--scan-dim", "4",
     "--shards", "40", "--shard-index", "3", "--threads", "1", "--json"],
    ["census", "--field", GF4, "--n", "3", "--k", "2", "--r", "1", "--wt",
     "2", "--constant-weight", "1", "--json"],
] + [_verify(name) for name in suite_names()]

# (stdout sha256, cert-out sha256 or None, exit code), one per argv
PINNED = [
    ("f7c9fcbb1fb27cf32ce1eb0826001801cdeae20d12d686525906860e7b0e6ca2",
     None, 0),
    ("4fa519a19361da8b6ee37c0791c85a66b4b81ec40e8be587342dba1e85e8d8f4",
     None, 0),
    ("62b7ca6919ff822b5fa8f4cf67699c35c7c02b5dc416fdf4e953d61c2e06f6b8",
     None, 0),
    ("8c639f18b5fa03228b9e7be54c1b926e2a763d7e935a3c3b52bc9e80c7ca455f",
     None, 0),
    ("1ae5f34ffa032177b93f8a94950fc15ef2178eaa43cc179812b21d56d5c155cd",
     None, 0),
    ("00068ad0b792467d92b9eeb8529846818a2a51d1e87b121a95f6ea9fe6661938",
     None, 0),
    ("4fa4f60dfd8808c378f9be9605b763c6ccae2b4ad2aadecc10362d51254a430d",
     None, 0),
    ("e4530db895addbb64433575afc40f23d91f0f2399f2f8696253a01a1af91b5d4",
     None, 1),
    ("97270f66708ae36de452a5bccae441b0915d277ed8ef0f58aa52538de6cb034c",
     None, 1),
    ("4fa4f60dfd8808c378f9be9605b763c6ccae2b4ad2aadecc10362d51254a430d",
     None, 0),
    ("f62f0ddea0156cd67a651efef93b703ad43547d12ad32ab1b914c865941e0fd8",
     None, 0),
    ("683ab710ece40cf8b7b778704de323f210eb130e755fe749ac05317e164f29e3",
     None, 0),
    ("7114fb981506caf2fb175ce23f5a04afd45d7ebd9d7fa49f3725bcc5efa20e60",
     None, 0),
    ("5b6d10634637b2d135dc941bbc4650adffcdf44d5ebe6af6ea55bf814d2fde5d",
     None, 1),
    ("4fcfdbade036dd425b0222f492e5f37436520edad91738e6d489239c32a33144",
     None, 0),
    ("ad44ca74d3e3f349c4492b3f03e911dabdbf6114a214bc5644e369f88cacbd6b",
     None, 0),
    ("75a66e98b51b69d32dbf4c2f2ad20bc2758427935790bb15925b3dbd888ceb9e",
     None, 1),
    ("75a66e98b51b69d32dbf4c2f2ad20bc2758427935790bb15925b3dbd888ceb9e",
     None, 1),
    ("4fcfdbade036dd425b0222f492e5f37436520edad91738e6d489239c32a33144",
     None, 0),
    ("9f3ae5c14b44de4787cfd20315d6c2d38250a8fe1504d4e5a0e3aaa31a7aaf58",
     None, 1),
    ("7f0e7d6d3400c357e5e818e22b00c01d042ed197e240802c860a706868f6a328",
     None, 0),
    ("ce03034504a118f9a6da5ba3f09f4766f0ac1ccbc05c56547ae187c7f099b1c6",
     None, 0),
    ("2e67333afca2795028ece57ba0cfae5b2b30c0aef2c1956b1f2ee499f6958cc9",
     None, 0),
    ("d181a5e233b3f71d00093a960819b9b04a6253585e7d09718a0d8d4c23b69a6c",
     None, 0),
    ("01ee513677a8f057e5b79afd6e273462ab14c24359c51f63fd394c25472c5571",
     None, 0),
    ("3cf735763a996bf3e2482ec9caabd6dc67cb80a25f000c0df5f346a93f4b14e3",
     None, 0),
    ("3e53934c5c3f4a488d0857ed98d469d41a07d9be31e26dd9ab10183ba0fcdee1",
     None, 0),
    ("e59400a03e82a98da57c63bd0b5374da68d5888756583243b06126bc47b414f8",
     "6db6781e9afcd818995fae367be0782e24d32046ffcf1533c6fc372d579582bc", 0),
    ("20843cce1f834c508f077301b6ab0ac53daa13fc039d86c4bc40ef9a0d5e60ff",
     None, 0),
    ("a79a0e62e0ba490fc4fda54fe03a13deb06f58b6e77b1308d25b5f2ea32a6c54",
     None, 0),
    ("4bea53aca4fb9618bdf25a8be3bb032a2329300e1da5533b54a694f5c2fc2211",
     None, 0),
    ("301ab7b5612ea0f6024b290f366eb64af9a726b26bb6d62d4284538192e9df5a",
     None, 0),
    ("336a11c107b78b336aa381b2b49b33312e50a932f6f9ee4142135f2c04a28371",
     None, 0),
    ("785171b426029cacab98614ed3573f4974ad1703d93beaca7af770c01c3dd724",
     None, 0),
    ("ab6896638a1940c553f79905157be17de5a64125414a124f4ec3a74936d746d4",
     None, 0),
    ("b6f542ac6f5866cc68cf8c007d80948469ede9fa9930444a200c5f43942b1139",
     None, 0),
    ("8724b585bc3658b1c41ec32cef131dc6285278dfa8077fc2266d394b5c63dca0",
     None, 0),
    ("96ad0110c497e03916804f7ac9eec7232146fc91fd57da1da0d2f5a4ce8e9ee0",
     None, 0),
    ("ca91e1340b260853f87d875819ae9665938efab5b5d0e4e768bbffaa65f5ebe9",
     None, 0),
    ("9b9e99357debab9ec5ee2852b58892a4916c9f2df263bef5e8570db59d98219e",
     None, 0),
    ("6df19603436a50add13cbd9a78935841919462bf80688cdaa9e85b7ccf4411e6",
     None, 0),
    ("a6bf8a373c6afd64344bbc0b148b38481cb480881ff5259aec4ece811e650a10",
     None, 0),
    ("25af4b753c229558acec14cdf5c7ef33de40a8c73e2792fc6f4af02ed3096fd1",
     None, 0),
    ("639a73d5df9a3c5fa00c01d0fba64a4cb13658fefbfcbf7bda2d783ee406b6bf",
     None, 0),
    ("78d72a5b0469c449cbc0cdfa7ce9202cd9f3276e124c6a7d1b9fd98d2382c447",
     None, 0),
    ("2ecbb7e3c588f1e2ee68aa02c9f0ae2e72a9d3c0687b39edb59ec53f061f64b1",
     None, 0),
    # maximality: 2 instances since the suite draws k = 2 codes (0 before)
    ("04fc7fc5c72564b8f0c17ef6de5c846bab75e4e8d959565d29d98e80e8f27983",
     None, 0),
    ("f417c709b26f0d76e1be895308d6cee2720d7936fa2f9543285d465f29dc5179",
     None, 0),
    ("5c843584b34822223e92d4f9e42a9a216e7fad8658328162e672053a22c8fbf4",
     None, 0),
    ("d02a7a8bf49136459d01980b0b39abbe15fa0e293fb856c12e1327ce6b986f70",
     None, 0),
    ("1e9b8779bb6940af4359bea8f1266b2bb3e6f7676ca0c7ed3c767b211fb7c721",
     None, 0),
    ("59532f8967a1d7bb75b2a9b9181afa7144ca2b1aa4c98219f2957163de774f75",
     None, 0),
    ("efdc8025ae79ef732226abd167e92b2d9f39c8d23df3c14061eb98f3136ac61b",
     None, 0),
    ("cb27c7aa76ba14fbe7b63548fb5d80b52758580b1ea5fabb9931db3d409914a2",
     None, 0),
]


# evasive-max with the line filter (h = 1), without it (h = 2 with t >= m,
# and h = 0) and out of budget; pinned before evasive-max ran on the scan
# kernels, whose budget is checked per work unit instead of per candidate
EVASIVE_MAX_ARGVS = [
    ["evasive-max", "--field", GF4, "--k", "3", "--h", "1", "--t", "1",
     "--json"],
    ["evasive-max", "--field", GF9, "--k", "2", "--h", "1", "--t", "1",
     "--json"],
    ["evasive-max", "--field", GF4, "--k", "1", "--h", "1", "--t", "1",
     "--json"],
    ["evasive-max", "--field", GF4, "--k", "3", "--h", "2", "--t", "3",
     "--json"],
    ["evasive-max", "--field", GF4, "--k", "2", "--h", "0", "--t", "0",
     "--json"],
    ["evasive-max", "--field", GF4, "--k", "3", "--h", "1", "--t", "1",
     "--budget", "5", "--json"],
]

EVASIVE_MAX_PINNED = [
    ("94ed5a1cef676df54bcd0a0080b980f978c06608e6a5cf707602ec0facaf8f4d",
     None, 0),
    ("7f0e7d6d3400c357e5e818e22b00c01d042ed197e240802c860a706868f6a328",
     None, 0),
    ("b5af9d5d135beefc7c2a6a723ab1992a75c5bd51f93f728fea77f8404a84f5f0",
     None, 0),
    ("3ac6d7ebd3e54dda7bda77c461a4a0fe3c4aa7b51016f1e1579369c519596e38",
     None, 0),
    ("1570e40172b8be051efb75eadb4d2e4cb73d54989db4f3b76ecb38e80dbcf3f8",
     None, 0),
    ("f2e2ce802a46ac465cec3e72ffdc86139a7dcdad4097a3803f21a9a03c839ced",
     None, 3),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def contract_result(argv, cert_path, capsys):
    """(stdout sha256, cert-out sha256 or None, exit code) of one argv."""
    argv = [cert_path if a == CERT else a for a in argv]
    code = run_command(argv)
    out = capsys.readouterr().out
    cert = None
    if cert_path in argv:
        with open(cert_path, "rb") as fh:
            cert = _digest(fh.read())
    return _digest(out.encode()), cert, code


def _id(argv):
    return argv[2] if argv[0] == "verify" else argv[0]


def test_every_argv_pinned():
    assert len(PINNED) == len(ARGVS)
    assert len(EVASIVE_MAX_PINNED) == len(EVASIVE_MAX_ARGVS)


@pytest.mark.parametrize(
    "argv, pinned",
    zip(ARGVS + EVASIVE_MAX_ARGVS, PINNED + EVASIVE_MAX_PINNED),
    ids=[f"{i}-{_id(a)}" for i, a in enumerate(ARGVS + EVASIVE_MAX_ARGVS)])
def test_contract(argv, pinned, tmp_path, capsys):
    assert contract_result(argv, str(tmp_path / "cert.json"), capsys) \
        == pinned
