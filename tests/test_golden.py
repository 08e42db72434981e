"""Byte-for-byte stability of the `validate --out` and `campaign` files.

Every fixture is checked against every shipped pack, and the sha256 of
each report file is compared with a digest recorded from a known-good
build, together with the exit code.  A campaign over the four fixtures,
each served by a mock endpoint, is pinned the same way.  A change that
alters any output, even by one byte, has to update a digest here, so the
difference shows in its diff.
"""
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import rdfval.packs
from mockserver import MockEndpoint
from rdfval.cli import main
from rdfval.packs import FIXTURES, PACKS

FIXTURE_DIR = Path(rdfval.packs.__file__).parent / "data" / "fixtures"
REPORT_FILES = ("outcomes.json", "violations.nt", "matrix.csv", "matrix.md")


def report_digests(fixture: str, pack: str, out: Path) -> tuple[int, dict[str, str]]:
    """The exit code of `validate --out` on a fixture and pack, and the
    sha256 of each report file."""
    args = ["validate", "--data", str(FIXTURE_DIR / f"{fixture}.nt"), "--pack", pack, "--out", str(out)]
    result = CliRunner().invoke(main, args)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORT_FILES}
    return result.exit_code, digests


# (fixture, pack) -> (exit code, digest per report file)
GOLDEN = {
    ("cube-clean", "ddi-rdf"): (
        0,
        {
            "outcomes.json": "d9839ae1cd6ff3287f409241864194fc553f2edf75405c8b84ea332961581f02",
            "violations.nt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "2fdae3794a7d9ae6e71176260ccf095eefd5791705bbbcee3329bd5de97b3584",
            "matrix.md": "8964f81d629d6b04a18c894739d4c89456a94f2a0c7ee2a1402106c304c9099a",
        },
    ),
    ("cube-clean", "qb"): (
        0,
        {
            "outcomes.json": "17152738149fcd4317db673b3c431bcf139e6d9b5eb30eab6d4cfe9b512fcdd8",
            "violations.nt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "165ce5424bb5d3b61e3fe144273e5b0507f26cfa4f7cef7d1c38248a407e0009",
            "matrix.md": "00127e20ab5fa655c62a304722e50627ecac57ad64a72fd35cd80954bda3e98f",
        },
    ),
    ("cube-clean", "skos"): (
        0,
        {
            "outcomes.json": "66f695b72213bb2a0a068294294a7b741e01f96e4aec54460a394e1841081a9b",
            "violations.nt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "1db6e59ffe92c3f711dd087241518c39199edb04647525bac6eeb14d91863be1",
            "matrix.md": "0a6dd652b20be4da7115f398713f824bd586abbc0c354b12bd560735df3c548d",
        },
    ),
    ("cube-gaps", "ddi-rdf"): (
        0,
        {
            "outcomes.json": "19e20ff08cb3cb2c5e43f1a938263cff46c3ed6d3ed25a85a648f60b7a423cbd",
            "violations.nt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "9fe6c1a74a10abc9cec25433a079bec80092c7a76b128eafae63e32242aeb1a5",
            "matrix.md": "a1192c73ef4b310d6593c52fe70d6f4f458a7bf5f1b8781327380d700109387f",
        },
    ),
    ("cube-gaps", "qb"): (
        1,
        {
            "outcomes.json": "6cbaef6bb99a6ecc96423c71ea1b7ba42d522b7e82322cb3c65c07ae35f40230",
            "violations.nt": "cc3e85463380e5684d0b81c077a370de59c48125c3e213cc497fac41c7b6d167",
            "matrix.csv": "da3c4eae11309dd9dd247ebc6cb239304b6f5e3884b4c5c65ba5c7464babb048",
            "matrix.md": "54835c603a893c5798349b6da4abacc8464c46d0ca29bf7c7221ea5009f94a84",
        },
    ),
    ("cube-gaps", "skos"): (
        0,
        {
            "outcomes.json": "5c9ee71bf3ce40d87428d3693faa7605e13b91b2e94b578eb0b968f87b06acfd",
            "violations.nt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "573fbccbdba482503ee27f07e621ac2b0e1a07b22d65636034fee66bc426ee81",
            "matrix.md": "ed27110dae9075397e159bd035dcb5744d3191da688468e7705e81e4252d1feb",
        },
    ),
    ("study-archive", "ddi-rdf"): (
        1,
        {
            "outcomes.json": "e17c7eac281531929baf91210a3f739e39079b4abb51f71ab173045a047c1165",
            "violations.nt": "246bd6d6d3649cdd99b50f0762ae7a6f330710905e3f1a4fb1b459146d67ba7b",
            "matrix.csv": "1ca60e95b6a00c4c5bdb03cf023f8f3a20733da7fd699684270926902fc4146d",
            "matrix.md": "879e4c2a4b5980cf05b8de9b793e2fd921e7dd2f592635be074754e01c6ad3e8",
        },
    ),
    ("study-archive", "qb"): (
        0,
        {
            "outcomes.json": "9dffb6d8fa074896f52f68c9d0e66f3d5750f50cbc00bee334a9743a74711bd7",
            "violations.nt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "2018facd9766bb402e15d4175e666217c97abf418bdf406179ed6902c492822c",
            "matrix.md": "7eb5a8f966fff7f89152d5c35ba968207ce0f6f21ebdab875e1cb74c3ef4b7dc",
        },
    ),
    ("study-archive", "skos"): (
        0,
        {
            "outcomes.json": "0061484ae21a5f6b801a0b8d73adefb3baf32983a05c96242f81168d8e201231",
            "violations.nt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "d7a19f409fbae1cfdc79c408a351b6f80d91fcbf2e3aacd1be593f15258bbfb6",
            "matrix.md": "15712c1c9b2895aaed1f251b607b096dacdcbdd5d9fdb5b79f4bbb7c7bd0d89c",
        },
    ),
    ("thesaurus", "ddi-rdf"): (
        0,
        {
            "outcomes.json": "0c7fbb221a85dce0b409f667902d180ff4aa8ef21a6079c6571e2a8415e3a9b9",
            "violations.nt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "matrix.csv": "af12a1338a785c939abbc7d5a9b86fe37b0291048172521ddbef2ef8df7ec4f3",
            "matrix.md": "62b28e59b072b214cb44d30fd3ec2b6ec6bbe59aa97bbc8805747de46a735ddd",
        },
    ),
    ("thesaurus", "qb"): (
        1,
        {
            "outcomes.json": "2bbebb89d9c783570078f355e0d07b015cfcfeeaa7f49fc83d7fa538c57b2c38",
            "violations.nt": "674b204d31e6ad5f60c77606fcade2187299464c5e411c31cd56dd66f734c612",
            "matrix.csv": "570543edae264d57a7dbf9b8360ef947ebecb1194947097cdc99a56fcb38f340",
            "matrix.md": "27448d2c7c4cada4e3ae02095c32e8a3459b893d5ed4306b3b657f3681db0c51",
        },
    ),
    ("thesaurus", "skos"): (
        0,
        {
            "outcomes.json": "54354b4ac110ad022b1a02ab3e5b5b81dd9fb89a895c1538b4e2e842a2cf0299",
            "violations.nt": "1115b637b82bdf3bd2dbe10c71b79637a38b23ea1c7c952bf0a6ca631af986ac",
            "matrix.csv": "1dbb602baa7b98a033d507b631f33e9261b89eb348bd1ea788e16d2cce7a0b3b",
            "matrix.md": "7950536942e607a5a37d440ea7a188a640af1687c8f4a0177fe3469bfebbf2cd",
        },
    ),
}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("pack", PACKS)
def test_report_files_match_their_recorded_digests(tmp_path, fixture, pack):
    assert report_digests(fixture, pack, tmp_path) == GOLDEN[fixture, pack]


# ---------------------------------------------------------------------------
# A fixture campaign: each fixture served by its own mock endpoint.

CAMPAIGN_PAGE_SIZE = 40


def campaign_digests(out: Path) -> dict[str, str]:
    """Run `campaign` over the four fixtures and return the sha256 of every
    file it writes, by path under ``out``.  The line of profile.json that
    names the endpoint is dropped first, because it holds the port."""
    endpoints = {name: MockEndpoint(rdfval.packs.load_fixture(name)) for name in sorted(FIXTURES)}
    try:
        sources = out.parent / "sources.json"
        sources.write_text(json.dumps([
            {"abbreviation": name, "endpoint-url": ep.url, "vocabulary": FIXTURES[name],
             "page-size": CAMPAIGN_PAGE_SIZE, "max-retries": 0}
            for name, ep in endpoints.items()
        ]), encoding="utf-8")
        result = CliRunner().invoke(main, ["campaign", "--sources", str(sources), "--out", str(out)])
    finally:
        for ep in endpoints.values():
            ep.close()
    assert result.exit_code == 0, result.output
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "profile.json":
            data = b"".join(line for line in data.splitlines(keepends=True) if b'"endpoint-url"' not in line)
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


# file under the campaign directory -> sha256
CAMPAIGN_GOLDEN = {
    "aggregate.csv": "59d31f6cd1e0402960ee8700f08952d73808d6d033aaca2a86cae28ad3e487df",
    "aggregate.md": "4675d8425a5fbbabff8cb7513a85aa0fb4a7201e1149d548a12dbaae5e4d3d42",
    "counts.csv": "cc4763e4b5a4610c3f491b9580211584927d52d3edbd07e9722b670b2d8baa26",
    "counts.md": "b2a4470f655a7f2c964699a1968acfa229119a0a8d62226dc664835a169a3e61",
    "cube-clean/data.nt.gz": "ede5e0b56dfa93c765144b96e0105b94f023c30e0052d2770cad0ed4c1624697",
    "cube-clean/outcomes.json": "8236cf198a0ae3512e654b6f0e5788e10e4224ad366dd02a69cb5c94b6ae7736",
    "cube-clean/profile.json": "be613f31e71b0db8a7940d1f1f0a170df0326f70f79e0335fa650bbd0dc96a89",
    "cube-gaps/data.nt.gz": "0ae57881c15fb3a05eb19c0226cb97b9fe9361a1fa51dd455fa563bda35fffda",
    "cube-gaps/outcomes.json": "1465b0c0c63ebe198c4732aed6a552ad00a9aab806a9a6e3f3667549e8dbce7b",
    "cube-gaps/profile.json": "d9c7f2677889d4c0d00af652242639091b96ae25534407bd8ff8e7313d2174c6",
    "ddi-rdf-matrix.csv": "1ca60e95b6a00c4c5bdb03cf023f8f3a20733da7fd699684270926902fc4146d",
    "ddi-rdf-matrix.md": "879e4c2a4b5980cf05b8de9b793e2fd921e7dd2f592635be074754e01c6ad3e8",
    "qb-matrix.csv": "8829bb84a89f5e7ade66706199b1969a4003bfc4e0db83a5cbe970497b34eb95",
    "qb-matrix.md": "9bc20d864fe87f4c8bfa46d60f18abff3c9efcb803b5730044c6754327ccea84",
    "skos-matrix.csv": "1dbb602baa7b98a033d507b631f33e9261b89eb348bd1ea788e16d2cce7a0b3b",
    "skos-matrix.md": "7950536942e607a5a37d440ea7a188a640af1687c8f4a0177fe3469bfebbf2cd",
    "study-archive/data.nt.gz": "94ac988042007f7ff910bb866e5a69082bf73ff11a369785b23c792fc39f6129",
    "study-archive/outcomes.json": "1764d58928938e7345846feef282d8d705d5fbd3b991c84fa61ec6bc6bb40827",
    "study-archive/profile.json": "7f31f53946bdd00a963b512e8b961be16052d86081d850e31d2362a91ba444ca",
    "thesaurus/data.nt.gz": "963f3f5b07c7ff3b39f5d288f31d2a29bae848b0621b4981a2f23a5765beeff1",
    "thesaurus/outcomes.json": "652eb2e9ff01c71a9492e4cdee985e92a36aaccadb8017427bc3c934f1b80c42",
    "thesaurus/profile.json": "58f747e274b6a5acb7c22a1c6db681ba758fd28d6145eba6c570d6e7d1ea545d",
}


def test_campaign_files_match_their_recorded_digests(tmp_path):
    assert campaign_digests(tmp_path / "out") == CAMPAIGN_GOLDEN
