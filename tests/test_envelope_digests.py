"""Both envelope sides of every family map stay bit-identical.

The CSV digests pin envelopes only through the rotation numbers they yield.
These SHA-256 digests pin each side directly: its source, its sections' float
endpoints (as hex) and its fundamental at 1,025 points of [0, 1]; for a
piecewise-linear map also the exact twin of each side at a few rationals.
The cases take a as a float and as an a_over_2pi Fraction, pwl with c just
above 1/4, and omega in [0, 1) and shifted by whole periods.
"""

import hashlib
import math
from fractions import Fraction

import pytest

from rotkit import counterexample_map, disc_standard, evaluate_exact, f_mu, lower_map, pwl_standard, standard_map, upper_map

RATIONALS = [Fraction(0), Fraction(1, 7), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(5, 6), Fraction(1)]

CASES = {
    "standard(0.3, 5.0)": lambda: standard_map(0.3, 5.0),
    "standard(3.31, 5.0)": lambda: standard_map(3.31, 5.0),
    "standard(-2.69, 5.0)": lambda: standard_map(-2.69, 5.0),
    "standard(0.7, c=3/2)": lambda: standard_map(0.7, a_over_2pi=Fraction(3, 2)),
    "standard(3.31, c=3/2)": lambda: standard_map(3.31, a_over_2pi=Fraction(3, 2)),
    "standard(0.3, 0.5)": lambda: standard_map(0.3, 0.5),
    "pwl(0.3, 9.0)": lambda: pwl_standard(0.3, 9.0),
    "pwl(3.31, 9.0)": lambda: pwl_standard(3.31, 9.0),
    "pwl(0.7, c=2/5)": lambda: pwl_standard(0.7, a_over_2pi=Fraction(2, 5)),
    "pwl(3.31, c=2/5)": lambda: pwl_standard(3.31, a_over_2pi=Fraction(2, 5)),
    "pwl(0.3, c=nextafter(1/4))": lambda: pwl_standard(0.3, a_over_2pi=math.nextafter(0.25, 1.0)),
    "pwl(3.31, a=nextafter(pi/2))": lambda: pwl_standard(3.31, math.nextafter(math.pi / 2, 4.0)),
    "pwl(0.3, c=250001/1000000)": lambda: pwl_standard(0.3, a_over_2pi=Fraction(250001, 1000000)),
    "pwl(0.3, c=1/4)": lambda: pwl_standard(0.3, a_over_2pi=0.25),
    "pwl(0.3, 1.0)": lambda: pwl_standard(0.3, 1.0),
    "disc(0.3, 7.0)": lambda: disc_standard(0.3, 7.0),
    "disc(3.31, 7.0)": lambda: disc_standard(3.31, 7.0),
    "disc(0.95, 0.5)": lambda: disc_standard(0.95, 0.5),
    "disc(0.0, c=1/3)": lambda: disc_standard(0.0, a_over_2pi=Fraction(1, 3)),
    "disc(3.31, c=1/3)": lambda: disc_standard(3.31, a_over_2pi=Fraction(1, 3)),
    "disc(0.3, 0.0)": lambda: disc_standard(0.3, 0.0),
    "f_mu(0.3)": lambda: f_mu(0.3),
    "counterexample": counterexample_map,
}

DIGESTS = {
    # case: (upper, lower)
    "counterexample": (
        "f1b86014750557a3e94e698df84438ac48cb960f68143e7bb42463e4e68ee5cb",
        "f1b86014750557a3e94e698df84438ac48cb960f68143e7bb42463e4e68ee5cb",
    ),
    "disc(0.0, c=1/3)": (
        "34657f23ff8ebd2d9d31c234727b740f9c2f6452a98bc8a8c2c6df6cf9ebfd20",
        "b10d581f07a95e96b6860747e00c218ad38ade064f9f84c7ae3802e7d15df2f5",
    ),
    "disc(0.3, 0.0)": (
        "7f2e3922438d778275a4e9e398bd5c2aad5282a36e07d1eca2c8c7fb748eb2bd",
        "7f2e3922438d778275a4e9e398bd5c2aad5282a36e07d1eca2c8c7fb748eb2bd",
    ),
    "disc(0.3, 7.0)": (
        "d1a77be3e797810394b07304e1e58068b5214ecc368ee5866ca6098a0d602ac6",
        "87f5c1d631984b1e350d4b937c3e4fa9d324699113bce39f702fc2aa56e01f92",
    ),
    "disc(0.95, 0.5)": (
        "8d52c96fdb48ac7335f9df28ffc0714158bf3d6554bc11486cac7f64299cbe83",
        "c709d44205432c2fa2b974fce81972a981f128d18998a8deec4aadcf3024b6de",
    ),
    "disc(3.31, 7.0)": (
        "cc88b06ddbe26698047f5f8e00b262e5ad05bef5c1f5195b1c54f37ae43369cc",
        "cc6a30ab13ff3aba06979a7ba09c0eb1331a33244b7b92415683c4bf2b8dedf5",
    ),
    "disc(3.31, c=1/3)": (
        "970c5761f539e1dabd34fca9c50c5d97e1ae928016694436ec6672ea04a62184",
        "d4d676f504384f208fdb02e982fd91626d7d31bee09ae27d271883aa5c928cea",
    ),
    "f_mu(0.3)": (
        "8e81f4065127d8f014ae6f46ad164d5774eae4a456e2955222d0ac274065225a",
        "8e81f4065127d8f014ae6f46ad164d5774eae4a456e2955222d0ac274065225a",
    ),
    "pwl(0.3, 1.0)": (
        "377c4da387409a9814c958eb390016327212dded3deec6d1e15027aa3e74bcbe",
        "377c4da387409a9814c958eb390016327212dded3deec6d1e15027aa3e74bcbe",
    ),
    "pwl(0.3, 9.0)": (
        "9f2367636fd3d3c1d944aaf2e501c1bec1a5098d858227507a61e3a7d7d24f19",
        "a6136e6abdc1aff7fbd306784e782b941718b49418ab5b9126f1cb302033f998",
    ),
    "pwl(0.3, c=1/4)": (
        "69aca6fbcf1a3d899ad189d1ff3f3d8735be463216889a6df01d0fa36ff71039",
        "69aca6fbcf1a3d899ad189d1ff3f3d8735be463216889a6df01d0fa36ff71039",
    ),
    "pwl(0.3, c=250001/1000000)": (
        "c74a5e3c212f047031ce422dcc3ad13d1597f451f886fffb37ba3daef5b2aee9",
        "2cac5c59a0b9156a3dea23754f37aeb8e8e5452a957598f2ebbb69f17182346e",
    ),
    "pwl(0.3, c=nextafter(1/4))": (
        "587e11bed2157a022715d9cf3cb602fd4f4b4b91838a62f1cfa44e872094cae7",
        "17a8193616cb9fd5833a0935a601523fc805165e9ef2c4514b7c65c9163ad211",
    ),
    "pwl(0.7, c=2/5)": (
        "d69778faa576b4a220364ad4363454d3934f22e6cddd920b58b8885a48ad78ba",
        "f77ed702654ad77d0996bd476da7cfa6c4738c7faa5bc3f7b2368b87fd9d6447",
    ),
    "pwl(3.31, 9.0)": (
        "20c01507137188269495a76df5672a334d6cebd34914aa7755eea46259b1990b",
        "229ba8d98443beaa12d9c2cd8e67d033fe07b9431c8505078e68efad1115d0fc",
    ),
    "pwl(3.31, a=nextafter(pi/2))": (
        "5c85d50326d1234510bb71b242ad9b256e865db5d072f35e1810487076113488",
        "e205242bb8b0d55edcc5337178f54147bdfbdc4ab3aa9fbde09ea2cb8847b6ab",
    ),
    "pwl(3.31, c=2/5)": (
        "b84c92113191cead8869af33a21fdbf8cef445193d14f621d5dfb2d49637d14b",
        "f2e2411c1f7da91c01c2b0b779cf75f1b9690a7530e0e67db3096dd50c324fbb",
    ),
    "standard(-2.69, 5.0)": (
        "9a1e665b736a4e3ce1b4a2fefd338f06daa4ca8e2e4375355992ecca59206fd6",
        "b680aa64198e0b37be60c07de86f0f9ef88ec71b55d97ecce2d2ec82d474052b",
    ),
    "standard(0.3, 0.5)": (
        "c9a19597351d444d64a3bcf0565f978ecb03211b2116de6eb7033c3b2de7e109",
        "c9a19597351d444d64a3bcf0565f978ecb03211b2116de6eb7033c3b2de7e109",
    ),
    "standard(0.3, 5.0)": (
        "5bb90ec66dbaaea4b5df584ed0d707713faf3d37a97a80dd864f8e40a38394c2",
        "c2e4ab427c25616abaaf79c7951d6a184995761c0219e3a0700bc6cfd9337781",
    ),
    "standard(0.7, c=3/2)": (
        "b215b6ab1d1701ef1e676fe71a4757922f0ba15cb8c2e9bf7c30448a8510fdb4",
        "559175ebf89da40b0b872bf1d4880a9d46ccffbb1d0b06578c9e1d132ae518db",
    ),
    "standard(3.31, 5.0)": (
        "940c9efad119b94c376738114abef5a0842a8cb1dfca12bb8fa4fbacf28e3840",
        "16db5d3661affcd5750119da357e81d78be041a2cc25f49327a5586031083794",
    ),
    "standard(3.31, c=3/2)": (
        "73bb1f9f53c0476b8043c74760a60ced7c02d5d31e209afdfcc7e83b8789e722",
        "7e654a8a04276866b685ee196abfedcefbdc934d2039842ca99159559b72adaf",
    ),
}


def _digest(env, exact: bool) -> str:
    h = hashlib.sha256(env.source.encode())
    for sec in env.lifting.sections:
        h.update(f"|{sec.alpha.hex()},{sec.beta.hex()}".encode())
    fund = env.lifting.fundamental
    for i in range(1025):
        h.update(fund(i / 1024).hex().encode())
    if exact:
        for q in RATIONALS:
            h.update(f"|{evaluate_exact(env.lifting, q)}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_envelope_sides_match_recorded_digests(case):
    F = CASES[case]()
    exact = F.knots is not None
    assert (_digest(upper_map(F), exact), _digest(lower_map(F), exact)) == DIGESTS[case]
