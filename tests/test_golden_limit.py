"""Pinned ``limit --json`` outputs for small versions of the benchmark's jobs.

Each case runs one of the five ``limit`` job shapes of the benchmark at a few
hundred digits and compares the ``results`` and the certificate diagnostics
(everything but ``elapsed_seconds``) with strings recorded from an earlier
implementation.  A speed change that moves a digit, a certificate or a
recognised form fails here.
"""

import json

import pytest

from seqlim.cli import main

GOLDEN = {
    "delannoy": (
        ["--rec", "delannoy", "--digits", "200", "--recognize", "ln2"],
        {
            "certified_digits": "223",
            "limit_decimal": ("0.346573590279972654708616060729088284037750067180127627"
                              "06034000474669681098484735780293166349820934377100074051"
                              "02853428668427601178790652785163353758175379809653637854"
                              "14185717595153519311945836735561675057682248977619560237"
                              "5"),
            "recognized": "1/2*ln2",
            "recognized_terms": {"ln2": "1/2"},
            "residual": "0.000e+00",
        },
        {
            "difference_ratio": "0.029437518565",
            "digit_agreement": ["22:33", "44:67", "66:101", "88:135",
                                "110:168", "132:202", "154:236", "176:269"],
            "terms_used": "181",
        },
    ),
    "arctan": (
        ["--rec", "arctan:x=1/2", "--digits", "200", "--scale", "4", "--recognize", "pi"],
        {
            "certified_digits": "223",
            "limit_decimal": ("3.141592653589793238462643383279502884197169399375105820"
                              "97494459230781640628620899862803482534211706798214808651"
                              "32823066470938446095505822317253594081284811174502841027"
                              "01938521105559644622948954930381964428810975665933446128"
                              "4"),
            "recognized": "pi",
            "recognized_terms": {"pi": "1"},
            "residual": "5.032e-234",
        },
        {
            "difference_ratio": "0.171573068522",
            "digit_agreement": ["50:38", "100:76", "150:114", "200:152",
                                "250:191", "300:229", "350:267", "400:306"],
            "terms_used": "406",
        },
    ),
    "apery3": (
        ["--rec", "apery3", "--digits", "200"],
        {
            "certified_digits": "223",
            "limit_decimal": ("0.200342817193265714233289693585241665127497715390083146"
                              "96537859255697303429771884836440931226822254302436652629"
                              "92101199030819993331122138689627328062013166935756569638"
                              "24893344453198595920373749040660260651610683881859849296"
                              "8"),
        },
        {
            "difference_ratio": "0.000866665743",
            "digit_agreement": ["10:30", "20:61", "30:92", "40:122",
                                "50:153", "60:183", "70:214", "80:245"],
            "terms_used": "81",
        },
    ),
    "delannoy_x": (
        ["--rec", "delannoy_x:x=4/7", "--digits", "150"],
        {
            "certified_digits": "173",
            "limit_decimal": ("0.505800455839239962613739667524388081835353292608453333"
                              "48860384507189318998692364093166402700489870816535638192"
                              "34983135274422643435397631406449804437654780705950933825"
                              "1196611"),
        },
        {
            "difference_ratio": "0.061327637327",
            "digit_agreement": ["22:26", "44:53", "66:80", "88:106",
                                "110:133", "132:160", "154:186", "176:213"],
            "terms_used": "181",
        },
    ),
    "wide": (
        ["--rec", "delannoy", "--digits", "80", "--recognize", "one,ln2,pi,zeta2,zeta3,catalan,L3"],
        {
            "certified_digits": "103",
            "limit_decimal": ("0.346573590279972654708616060729088284037750067180127627"
                              "0603400047466968109848473578029316634982093437710"),
            "recognized": "1/2*ln2",
            "recognized_terms": {"L3": "0",
                                 "catalan": "0",
                                 "ln2": "1/2",
                                 "one": "0",
                                 "pi": "0",
                                 "zeta2": "0",
                                 "zeta3": "0"},
            "residual": "0.000e+00",
        },
        {
            "difference_ratio": "0.029438801406",
            "digit_agreement": ["10:15", "20:30", "30:46", "40:61",
                                "50:76", "60:92", "70:107", "80:122"],
            "terms_used": "81",
        },
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_limit_output_is_pinned(name, capsys):
    argv, results, diagnostics = GOLDEN[name]
    assert main(["limit", *argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"] == results
    doc["diagnostics"].pop("elapsed_seconds")
    assert doc["diagnostics"] == diagnostics
