"""Pinned CLI reports.

The SHA-256 of stdout for report-producing invocations on ten interval
files.  The full-ledger reports (``--ledger full``) and ``classify`` were
recorded before the condition ledger became columnar, the default summary
reports when the summary became the default, and the other interval-B
methods, the circulant, P-sufficient and Z classes and the three extra
files (circulant, symmetric of even order, and dim 1) before the interval
criteria moved from per-position loops to one array row kernel; two more
default summaries (m=3, n=8 generated, and an overflowing family) before the
summary was grouped per block and written from its columns.  The SHA-256 of
``cross-validate`` stdout is pinned for every structure on two shapes, on
two shapes whose boundary trials fall back to a general draw, and with
classifiers made to disagree, so that counterexamples are pinned too.
Any change to a report byte (a float's digits, the sign of a zero, a key,
the order of records) changes a hash here.
"""

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from itensor import (
    GeneratorSpec,
    Status,
    make_interval,
    make_tensor,
    oracle,
    random_interval_tensor,
)
from itensor.cli import dumps_report, main
from itensor.interval import interval_to_json
from itensor.oracle import boundary_interval
from itensor.tensor import circulant_from_first_row

DATA = Path(__file__).resolve().parent.parent / "data"

VERBS = {
    "double_b": ["check", "--class", "interval-double-b", "--ledger", "full"],
    "b_theorem": ["check", "--class", "interval-b", "--method", "theorem",
                  "--ledger", "full"],
    "classify": ["classify"],
    "double_b_summary": ["check", "--class", "interval-double-b"],
    "b_theorem_summary": ["check", "--class", "interval-b", "--method", "theorem"],
    **{
        f"b_{meth}{suffix}": ["check", "--class", "interval-b", "--method", meth]
        + ledger
        for meth in ("compact", "slack", "pairwise")
        for suffix, ledger in (("", ["--ledger", "full"]), ("_summary", []))
    },
    "circulant": ["check", "--class", "interval-circulant", "--ledger", "full"],
    "circulant_summary": ["check", "--class", "interval-circulant"],
    "p_sufficient": ["check", "--class", "interval-p-sufficient"],
    "z": ["check", "--class", "interval-z"],
}


def _off_grid_signed_zero():
    """Order-3 dim-3 family with decimal (off the 1/16 grid) entries and
    signed zeros: -0.0 lower off-diagonals, a -0.0 lower diagonal in row 3,
    and an all -0.0 lower row tail, so products and sums meet both zeros."""
    n, m = 3, 3
    r = n ** (m - 1)
    lower, upper = [], []
    for i in range(n):
        for f in range(r):
            k = i * r + f
            if f == i * (n + 1):
                lo = -0.0 if i == 2 else 1.3 + 0.1 * i
                up = lo + 0.7
            elif i == 1:
                lo, up = -0.0, 0.1 * (f % 3)
            else:
                lo = ((k * 7) % 11) / 10.0 - 0.3
                if k % 5 == 0:
                    lo = -0.0
                up = lo + ((k * 3) % 7) / 20.0
            lower.append(lo)
            upper.append(up)
    return make_interval(make_tensor(m, n, lower), make_tensor(m, n, upper))


def _circulant_4_2():
    """Order-4 dim-2 family with circulant bounds, off the 1/16 grid, with
    signed zeros in row 0; it is interval B."""
    lower = [3.3, 0.1, -0.0, 0.2, -0.3, 0.0, 0.15, -0.05]
    width = [0.5, 0.05, 0.1, 0.0, 0.1, 0.2, 0.05, 0.1]
    upper = [lo + w for lo, w in zip(lower, width)]
    return make_interval(circulant_from_first_row(lower, 4, 2),
                         circulant_from_first_row(upper, 4, 2))


def _overflowing_3_2():
    """The circulant family of ``test_cli.TestOverflowingFamilies``: lower
    diagonals 1e308, off-diagonals in [-1e300, 1e300]; the c products
    overflow, so summary sides read ``Infinity``."""
    return make_interval(
        circulant_from_first_row([1e308, -1e300, 1e300, -1e300], 3, 2),
        circulant_from_first_row([1.5e308, 1e300, 1e300, 1e300], 3, 2))


# Families written with json.dumps, which keeps "-0.0".
FAMILIES = {
    "off_grid_signed_zero": lambda: _off_grid_signed_zero(),
    "circulant_4_2": _circulant_4_2,
    "symmetric_4_2": lambda: random_interval_tensor(GeneratorSpec(
        4, 2, offdiag_range=(-0.5, 0.5), structure="symmetric", seed=2)),
    "dim_one_4": lambda: make_interval(make_tensor(4, 1, [0.5]),
                                       make_tensor(4, 1, [2.0])),
    "overflowing_3_2": _overflowing_3_2,
}


def _input(name: str, tmp_path: Path) -> str:
    path = tmp_path / f"{name}.json"
    if name.startswith("example_"):
        shutil.copy(DATA / f"{name}.json", path)
    elif name == "boundary_3_3":
        path.write_text(dumps_report(interval_to_json(boundary_interval(3, 3))))
    elif name.startswith("generated_"):
        m, n, seed = name.removeprefix("generated_").replace("seed", "").split("_")
        assert main(["generate", "--m", m, "--n", n, "--seed", seed,
                     "--output", str(path)]) == 0
    else:
        # json.dumps keeps "-0.0"; the report writer's "-0" would load as +0.
        path.write_text(json.dumps(interval_to_json(FAMILIES[name]())))
    return str(path)


# (input, verb) -> (exit code, SHA-256 of stdout)
GOLDEN = {
    ("example_interval_b_reject", "double_b"): (
        1, "8a835375750e545c4e5a3fd528f1ba27180eb78a0c19564113aee401ddf354ea"),
    ("example_interval_b_reject", "b_theorem"): (
        1, "0cc3adfcf502307d1354ad603a796ba365b5f302d6a61bc12df18f8fdfae5c63"),
    ("example_interval_b_reject", "classify"): (
        1, "3ab176dbd7430d963c766a699a36292975ce39fc38956f18b55f183d3fbd73bf"),
    ("example_interval_double_b", "double_b"): (
        0, "3ec2d225a95b06598b908e98dd24534afa912eee9162d4bc5f7514f5c62d2c5c"),
    ("example_interval_double_b", "b_theorem"): (
        0, "a309c148390b694291612b31666374f76e8b167de253a069de6f7d675b2dabb1"),
    ("example_interval_double_b", "classify"): (
        0, "39a7646fd38077cb5c4c96a03e6260b23427dbf3b9ac34636736c0a0b0b8e081"),
    ("boundary_3_3", "double_b"): (
        0, "18ba3e44e424c77c6b109f719ab4fd779940aa65f7fe90423b7c1a60838a98cb"),
    ("boundary_3_3", "b_theorem"): (
        1, "1da1013a7f2605929c7843a9760ac3b1b710100b389f2465f7cade0b9ac30961"),
    ("boundary_3_3", "classify"): (
        0, "8caaafd778de5dfb7bb9c1e81edf4181ade2da124ae004eca8025e661ff7effb"),
    ("generated_3_6_seed1", "double_b"): (
        1, "39d4f0e443d934fcf77448ce0e269ca7afc0060dcba7c9a09426eb873e8b766e"),
    ("generated_3_6_seed1", "b_theorem"): (
        1, "40dde99e4fbdff0d18fd8cfa74b1fba272b6bb225c7649a3eef5879273c0c22f"),
    ("generated_3_6_seed1", "classify"): (
        1, "5e960e97547e348dc5ce52db909d083cbf3b02a01310bd51ab5de86a1e930b43"),
    ("off_grid_signed_zero", "double_b"): (
        1, "8bd51dc394e63538bee58db5c1793dd3c00fc721f21b5e196b543eca3c024be5"),
    ("off_grid_signed_zero", "b_theorem"): (
        1, "bef8e0083e5f6d7e466be2fc536e39cace7c861b18f7d0b65c8fb6a46b94c1c5"),
    ("off_grid_signed_zero", "classify"): (
        1, "b7a9d05cab3c7dba32239d2eb4cd28608c47fb801313dbbe38c6762f521273e5"),
    # The default summary ledger (one group per condition id and row or row
    # pair), recorded when it became the default.
    ("example_interval_b_reject", "double_b_summary"): (
        1, "c828b632312ad8514c475c6fc3bbb1e632d4df0bfec9742a0f58321781182f5e"),
    ("example_interval_b_reject", "b_theorem_summary"): (
        1, "67f909bb65cf325a7d2b88c8eee313ea9598550522179f3d3cc7bcb077ebbb28"),
    ("example_interval_double_b", "double_b_summary"): (
        0, "33bde4e7ae033cf8840ff141c3e91673a4945ff98080a2a6b091d989ec0797ba"),
    ("example_interval_double_b", "b_theorem_summary"): (
        0, "e9570fa7994a010e4c95172d7e653de1fdb56f6e20012ba8501d5fb176f94c42"),
    ("boundary_3_3", "double_b_summary"): (
        0, "4f6025e865f3490ab530c3f7d2686f40fd6943a760768a210be2250d97721a67"),
    ("boundary_3_3", "b_theorem_summary"): (
        1, "96cf938cdb11b21aab4e04bbeb2cc0d71848c9d13327cd2d4415a2269ea4eea1"),
    ("generated_3_6_seed1", "double_b_summary"): (
        1, "319254eb3b8a09998e656e56ad36e7904e9d1c1b3c94578f377b7558a5f50622"),
    ("generated_3_6_seed1", "b_theorem_summary"): (
        1, "26b32f096065e9de31ae8ff2a51ffe0c68ad94d07b9723dc702beb179b7eb1ad"),
    ("off_grid_signed_zero", "double_b_summary"): (
        1, "6ddfe792f5751190d2214a36863c50d2c280f44683957ecbb5491830024682e4"),
    ("off_grid_signed_zero", "b_theorem_summary"): (
        1, "1440a1ccd17b8754aba870849187d6262a33e21fe9593f919fb7a2f1d15c2978"),
    # The other interval-B methods, the circulant, P-sufficient and Z
    # classes, and the three extra families, recorded before the interval
    # criteria moved onto one array row kernel.  interval-circulant exits 3
    # with an empty stdout on bounds that are not circulant.
    ("example_interval_b_reject", "b_compact"): (
        1, "fad5a1ec02924a724f7173e881b166cfe968859eb6926841240fa3363c5620c0"),
    ("example_interval_b_reject", "b_compact_summary"): (
        1, "fa0998ccdfe2da5d8a765df89ca5050aa94e6e6b1c379d53a4d71ac1a81149ea"),
    ("example_interval_b_reject", "b_slack"): (
        1, "ff5b521d66c6d23dacb44ef6eeefbf42b4ee53101f43511cf51e9012783dfb63"),
    ("example_interval_b_reject", "b_slack_summary"): (
        1, "66a518144b5c5e9b52f656ab6dd6c73a68141136a982ee319cecd61185136d5b"),
    ("example_interval_b_reject", "b_pairwise"): (
        1, "1ef675dffede0b003cf97ad5d831d8ba74aa49d2b970e275a3d4f4bbef92ef52"),
    ("example_interval_b_reject", "b_pairwise_summary"): (
        1, "4e2949bcc12aea95422199de99979980800582f4a4bb39b0312e5d0f93f7e357"),
    ("example_interval_b_reject", "circulant"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_interval_b_reject", "circulant_summary"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("example_interval_b_reject", "p_sufficient"): (
        2, "74eaf99ee6ad6ef03c1595c4091a1029d76e43ff2b5a6bbc46cdb6a7f7a66d88"),
    ("example_interval_b_reject", "z"): (
        1, "eda9df76f260dcc68e0c8e4d65607137cd4c8f1bf50b3d80bd3f6351515c8d65"),
    ("example_interval_double_b", "b_compact"): (
        0, "57649d0de4da59b27deb6f5c3309adabe4bac5486cf6ebceea676c66708e482f"),
    ("example_interval_double_b", "b_compact_summary"): (
        0, "406d124f2d10d98f28fb5f4106a7054621a2ae63ed0f859a5a4e89ee3d5b2527"),
    ("example_interval_double_b", "b_slack"): (
        0, "7faa3731052b0bb08a3aa6e9bea9e4eb64265fb466687e791d9cc9a85ee59d46"),
    ("example_interval_double_b", "b_slack_summary"): (
        0, "82898f19d1de10e1f29b002c0d02e6189c3c73b61956bb5ad2688185c4dbf084"),
    ("example_interval_double_b", "b_pairwise"): (
        0, "495aef7376be7047eb3481f5cedeca35fab35fc9a7b881954a260bfec1963232"),
    ("example_interval_double_b", "b_pairwise_summary"): (
        0, "b831a4ffad9f51cc1a6780ac7e4c0631278c49f4586048c69afb425686f0a96b"),
    ("example_interval_double_b", "circulant"): (
        0, "d454e3c616ddcead3ed25a7be0fe9d196ca4e46fbf6322c742ae6a3cb57eaae0"),
    ("example_interval_double_b", "circulant_summary"): (
        0, "e79e602e6f2627bf09d376403f80f70d9fd6b8d6492a6605a44d308bae1cb576"),
    ("example_interval_double_b", "p_sufficient"): (
        2, "2a46349b9a2346fcaa16f5a6d06f41497b189f2ebc6a1c8a9fb0df7b07883d23"),
    ("example_interval_double_b", "z"): (
        1, "b8b38a76e9778366809e5e4815050b29608845de62e4c4f807fb89f3796d4de9"),
    ("boundary_3_3", "b_compact"): (
        1, "a55a1c1d9fc31426b230d2a7b61c03e7fc033bc4d83e1449ae46ddd694b46573"),
    ("boundary_3_3", "b_compact_summary"): (
        1, "5b2b1fdce59f21ce3f0b0dea9fd733893c629192015ae8cceabb94b0af5c618e"),
    ("boundary_3_3", "b_slack"): (
        1, "9e139347a804345e948253585d292cab847df89410f6427ddefdf12191475ffc"),
    ("boundary_3_3", "b_slack_summary"): (
        1, "e7234f70c95cb40bcfd03fa25d3bf5f03796c13521cee81111363751217c52c1"),
    ("boundary_3_3", "b_pairwise"): (
        1, "ad12768287f92e8962c1db633dfb6c895a16c06612a51897a2e2067e381cac2e"),
    ("boundary_3_3", "b_pairwise_summary"): (
        1, "28fa81f26e26fc88b78f0a8ba06776f56dd0a88039e31b0de02600159a21a924"),
    ("boundary_3_3", "circulant"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("boundary_3_3", "circulant_summary"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("boundary_3_3", "p_sufficient"): (
        2, "9f54962752cfbe0f970b4095dbca4ccce2320e11d46cf56d2b4aafddb14bfc29"),
    ("boundary_3_3", "z"): (
        1, "c097f8ec58eb5646def74c9b38d5d038e7bad97ae4fce499bc74b4d935cdc78e"),
    ("generated_3_6_seed1", "b_compact"): (
        1, "8d997cdec8f5a773815c95371f81e4c77cd80336201dc356055d15186843ffde"),
    ("generated_3_6_seed1", "b_compact_summary"): (
        1, "cb0fb47fd6f2a13bff36861bf912bb13889bd22428c14fc15c22f3bd8e3b4f96"),
    ("generated_3_6_seed1", "b_slack"): (
        1, "ede18172edf8ab5b355915d4035cdbcd05cff0e2b532e65e5f5cb18155ee8ce6"),
    ("generated_3_6_seed1", "b_slack_summary"): (
        1, "3bcc8702209265c3a87bd15692fff32702eb76e6dd39aaba40eec7f42f7a360d"),
    ("generated_3_6_seed1", "b_pairwise"): (
        1, "48bbb9ce1fc7965618d1e5faae3aee062d57444b0fdad48f49f3eefee184e04b"),
    ("generated_3_6_seed1", "b_pairwise_summary"): (
        1, "56c2b060399b31ce64f1c2df936b5002c77f40c598b01b1d723e9f7f1d3e1082"),
    ("generated_3_6_seed1", "circulant"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("generated_3_6_seed1", "circulant_summary"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("generated_3_6_seed1", "p_sufficient"): (
        2, "3f228fb067ebea02714d9bfda60ff749e745d9ffdeb48f19d6c6007016b1b3b2"),
    ("generated_3_6_seed1", "z"): (
        1, "2d2413d511e903309c41673bd3cb4f6e9fbd0693463c6c623ec462e26fb7bacd"),
    ("off_grid_signed_zero", "b_compact"): (
        1, "46a9654d9a32a89e08d4c7d1bbde02bc44b0652e9d6e86576bfd454fcb46f6b2"),
    ("off_grid_signed_zero", "b_compact_summary"): (
        1, "fe505c4d1cfbc5c528a14b628cd9352ba2130cf6fabd4561a0ee43bbac2969c4"),
    ("off_grid_signed_zero", "b_slack"): (
        1, "4a3dc26a07f7ae0c29db248a1b34795e49e0b9c3f58fca10888d0afc18bc4ed9"),
    ("off_grid_signed_zero", "b_slack_summary"): (
        1, "ef8012b03d9431384e928f08c42ab196323aed801cf80dd1268f39c04bb7796e"),
    ("off_grid_signed_zero", "b_pairwise"): (
        1, "b7e58b2c49121bee04e4e20a1a10015700da670d8c7bbd90676d5961fa2acbad"),
    ("off_grid_signed_zero", "b_pairwise_summary"): (
        1, "c11e97062fdc3c6814b20a40790eaaef2ece76766fc22e10fdd873278e423003"),
    ("off_grid_signed_zero", "circulant"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("off_grid_signed_zero", "circulant_summary"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("off_grid_signed_zero", "p_sufficient"): (
        2, "05479e12c7cdf3c3385593e8a977e66afeea8fa5aa9384b6e556db4ccaddf02b"),
    ("off_grid_signed_zero", "z"): (
        1, "2d91e803ab8e206cfa2afe729ca1b04f19aa3214813a50e18f68cbac3109572e"),
    ("circulant_4_2", "double_b"): (
        0, "5670fd5ee19b16dc198115c453e0427415e81bf3e437eff8a35f8a04cf0b287e"),
    ("circulant_4_2", "b_theorem"): (
        0, "e511c7b037aa5a6372292b80feb5b62c247d843da553549e38bacf1e6fbf13f1"),
    ("circulant_4_2", "classify"): (
        0, "b63977e17014e11ae3ad8d6078915edbc8bede5796e1246772ea50e97d3e3ca6"),
    ("circulant_4_2", "double_b_summary"): (
        0, "b853eeb1dbafdd5a5363ea4a90753a39b3291d905e1a2c03c76cca27882aae50"),
    ("circulant_4_2", "b_theorem_summary"): (
        0, "5e6280739823fbc897202184174ee81eb11fbfcb76ace5927ef1dc68bcba148d"),
    ("circulant_4_2", "b_compact"): (
        0, "661b2976893c964e729438b9943dc7a2d6c31284f023546b4e47e6f9b43703b4"),
    ("circulant_4_2", "b_compact_summary"): (
        0, "412acb53fc007adc41bcbd4c1e37749ab7646bdd82467f540d403b9f93d85de4"),
    ("circulant_4_2", "b_slack"): (
        0, "69ba401759a4c6c3cbcfa5107dcfa34124acd585e8858026f33b5ded5b614fd4"),
    ("circulant_4_2", "b_slack_summary"): (
        0, "80e5ee8a1f8aed7e2180f86cb1b79af7a402e97a0272ffe78d5578d422b7f464"),
    ("circulant_4_2", "b_pairwise"): (
        0, "83ff458bda8f38020b44861943bd5f5d6148afe6e80678c4691363b86872f24a"),
    ("circulant_4_2", "b_pairwise_summary"): (
        0, "d73542be633e27a9aa647d9b2b02b2c32b642889e9184a7fd1e520bfc08a8918"),
    ("circulant_4_2", "circulant"): (
        0, "c7c1997c22aeeaf8d5e48203cc68b900fe0afa82ed07b8ec975362cce1414947"),
    ("circulant_4_2", "circulant_summary"): (
        0, "91200b7c5a87996fc32892cf7f424cbea0e20b80afc75b33ea3209bacbcccf36"),
    ("circulant_4_2", "p_sufficient"): (
        2, "53ccfc3ff8b624092706561d1a71899a04ca40b5d4fc0faeecb7802b7fdbb366"),
    ("circulant_4_2", "z"): (
        1, "657954150fb967bd490b8cd7c077db2ddd05983a7b3321bd6775c92eb1616ef2"),
    ("symmetric_4_2", "double_b"): (
        0, "939f1288359cb45f674f7e7bebde76984a120505918f41b0940be65c84cd5f33"),
    ("symmetric_4_2", "b_theorem"): (
        0, "3a1186f085ccac03a5bac16d1a45562367454227471f9a68bd9f84c924f5e0fe"),
    ("symmetric_4_2", "classify"): (
        0, "a50d51de94e84532d209eeacf42d9bfd063e4b042bfe4c0bf5875e9d1b39b2d8"),
    ("symmetric_4_2", "double_b_summary"): (
        0, "61d65347d8cb0b7eb3285a9e21e7f5d1a35d0141d17bd00d36f09de32166d3b1"),
    ("symmetric_4_2", "b_theorem_summary"): (
        0, "42e43f696e55743ef3cb41d8e15342b74cfe6fe3a8730f54079547f322cdda5a"),
    ("symmetric_4_2", "b_compact"): (
        0, "e88607bd39df354b01188d77a7ec6326df1b14d89e0e67239c11c07933104a91"),
    ("symmetric_4_2", "b_compact_summary"): (
        0, "c2a73af7d66c82e42dee8ce3c4de0e0972989db3f1c9e9f2569fbaf27fc2a6da"),
    ("symmetric_4_2", "b_slack"): (
        0, "d07383fe821f146ff36d5aadccb60da8a1f86edda6300db9fdafdc994f122c4a"),
    ("symmetric_4_2", "b_slack_summary"): (
        0, "e3bfa51494424e3d40e80913cc597cddd74f90a287c254c9c9a605566debd844"),
    ("symmetric_4_2", "b_pairwise"): (
        0, "d7e8b787c02364cea6e0bbb1d6430cd416e06475be4477d3ae85216fa9ebbcf5"),
    ("symmetric_4_2", "b_pairwise_summary"): (
        0, "072c706f8bec69840efd28fdf2a70c2aad97d6cc22b632ca28347131a8c876ac"),
    ("symmetric_4_2", "circulant"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("symmetric_4_2", "circulant_summary"): (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("symmetric_4_2", "p_sufficient"): (
        0, "9c2fc9786ac37cfbef45356359defd18788d69ee4422109ebf27856a0b95884c"),
    ("symmetric_4_2", "z"): (
        1, "322c4758ea302f057af03bb0a04bf7200415f6f39a756d5a64fc3cf11104ae26"),
    ("dim_one_4", "double_b"): (
        0, "2b579cc9d7aa4e7baf563abaa3f27afdad62b2d1f09b2dd76532ade7a6ad95e8"),
    ("dim_one_4", "b_theorem"): (
        0, "81aaee42ba261c127be69720724f433d413cf7a3967a2a8fae0ed01a1d5840c7"),
    ("dim_one_4", "classify"): (
        0, "7af26f995913e9a99f85cb32f8fcdcfb0f5cedb600a9804283c4f68c3cc527c9"),
    ("dim_one_4", "double_b_summary"): (
        0, "cff1f2c8625f1d5a64efe04163bbe6445ec29c28ad1311770de8877c08ba6a73"),
    ("dim_one_4", "b_theorem_summary"): (
        0, "9115ff3e9049ffee0716c06fd88ecead3387470b3841e3b1a4ee272e7d7657a3"),
    ("dim_one_4", "b_compact"): (
        0, "b9523a91e60f1247a16b0473bf1b6767db471de9e3c56256aec48ef6d5c2c667"),
    ("dim_one_4", "b_compact_summary"): (
        0, "94e2eb24e2603d63de0917ce763c30af1d182e3c5422194bcd3d2b1715c3f9f3"),
    ("dim_one_4", "b_slack"): (
        0, "45d00747aac21801e1cbd3215512f128d18520df0f98853bd910c6b2cebcc0b2"),
    ("dim_one_4", "b_slack_summary"): (
        0, "000d7c701edd5edfbc1b93de0d9a5f9efda0f52a876b8b38040a2b98a007a8e4"),
    ("dim_one_4", "b_pairwise"): (
        0, "a7d76bdbfd8767dc4f11f7ce797c9fcac2c23d7b064a31b3802de830dba3a637"),
    ("dim_one_4", "b_pairwise_summary"): (
        0, "9b2c1e8042e4129006ae4f1e11a11690d565830f971efb723e9213a6d5943543"),
    ("dim_one_4", "circulant"): (
        0, "c8cca882782bb927bbcb71ed2dd56ab5a929a02889a5040533db1fc002c3024d"),
    ("dim_one_4", "circulant_summary"): (
        0, "4df59b0c3bfa72592f9808ee54fead5eae9418f711dee3793cff1c0a18f18db7"),
    ("dim_one_4", "p_sufficient"): (
        0, "9676d46e0bc1ba725c4b2301a5eb32d93c0f6bda27726b0a3aa21f530a14377b"),
    ("dim_one_4", "z"): (
        0, "2ecbc910194bdbbc5e943faf0bfd24f204d86f3e01c0f7c59d640386a5b11429"),
    # Recorded before the summary was grouped per block and written from its
    # columns: the benchmark's largest rung (115k records, above
    # SMALL_LEDGER) and infinite sides.
    ("generated_3_8_seed1", "double_b_summary"): (
        1, "8134e22a85acd235d84460089e1000215c66bd282cbd5303e9f090300e18843b"),
    ("overflowing_3_2", "double_b_summary"): (
        1, "7f50f89aac9cda1ddb886559b310b2bf7f21575f395366bf971764ef90fc9d61"),
}


@pytest.mark.parametrize("name,verb", sorted(GOLDEN))
def test_report_bytes_pinned(name, verb, tmp_path, capsys):
    path = _input(name, tmp_path)
    capsys.readouterr()
    code = main(VERBS[verb] + [path])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[(name, verb)]


# cross-validate stdout, recorded before the suite became one stream of
# property results: (m, n, structure) -> (exit code, SHA-256 of stdout).
# Rows of (2, 2) have one off-diagonal position and rows of (3, 1) none, so
# their manufactured boundary trials fall back to the general recipe.
CROSS_VALIDATE = {
    (3, 2, "mixed"): (
        0, "7214c72a22fc732093173f10a76976f19f35c34f9b7c2b9f1789bd0a97017983"),
    (3, 2, "general"): (
        0, "7a992c60fee68391563d3faedb183f086712b679041e890b7f513a18542b3455"),
    (3, 2, "z"): (
        0, "f6d8dffcf7f18600c7de54e734eff5fc645000b7598fcb798f1910325915618d"),
    (3, 2, "circulant"): (
        0, "672b7577008293d8dfa7474c0e3f6a2aa859d088ba528a02fa0170009c434ef5"),
    (3, 2, "symmetric"): (
        0, "248f0002557babee7e08d977704583ac0b40bbf2538e1aaaeb191f45be9cd047"),
    (2, 3, "mixed"): (
        0, "31bfdbf86659c1843af8a6e9fbc8ed57887076c6ae0bc3841e795138aeebaddf"),
    (2, 3, "general"): (
        0, "f6756e056bc38641cd44ba85f9b705b754334a313405c5fe175b3d84aab7294b"),
    (2, 3, "z"): (
        0, "2a197ea898332532d449142dccd70c0c693a8b09e29cb25876bf5e936481ecb3"),
    (2, 3, "circulant"): (
        0, "44b14a19291e4f27529d100410a34bdea12c62b44e1e0316412a77006fc4d815"),
    (2, 3, "symmetric"): (
        0, "b72231b6a920470de2969d02c3ba343ba927724bfdef896242a6b0ae25c20bbd"),
    (2, 2, "mixed"): (
        0, "bb5152473d695cffe3cdc8cf1d2be592d5a449fd83180bf738542a3f892416fa"),
    (3, 1, "mixed"): (
        0, "94726084985de4e2ff621bdc29c5d0521f817668e1c9e59600aaab710a45e940"),
}


def _cross_validate(m, n, structure, capsys):
    capsys.readouterr()
    code = main(["cross-validate", "--trials", "50", "--seed", "2", "--m", str(m),
                 "--n", str(n), "--structure", structure])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("m,n,structure", sorted(CROSS_VALIDATE))
def test_cross_validate_bytes_pinned(m, n, structure, capsys):
    assert _cross_validate(m, n, structure, capsys) == CROSS_VALIDATE[(m, n, structure)]


def _flip_every(fn, period, phase):
    """``fn`` with HOLDS and FAILS swapped on calls phase, phase + period, ..."""
    calls = [0]

    def flipped(*args, **kwargs):
        verdict = fn(*args, **kwargs)
        calls[0] += 1
        if calls[0] % period != phase or verdict.status is Status.INCONCLUSIVE:
            return verdict
        status = Status.FAILS if verdict.holds() else Status.HOLDS
        return replace(verdict, status=status)

    return flipped


def test_cross_validate_counterexamples_pinned(monkeypatch, capsys):
    """Classifiers that disagree on a fixed schedule of calls: the ids of the
    properties, and the order, trials and instances of the counterexamples,
    are pinned; the schedule counts calls, so the order of the suite's
    classifier calls is pinned too."""
    monkeypatch.setattr(oracle, "check_interval_b",
                        _flip_every(oracle.check_interval_b, 7, 3))
    monkeypatch.setattr(oracle, "check_interval_double_b",
                        _flip_every(oracle.check_interval_double_b, 5, 2))
    assert _cross_validate(3, 2, "mixed", capsys) == (
        1, "d315356633f8510423175690fc09ba502a2a1a0e44e9a7b67bf1a810474208ae")
