"""Acceptance gate.

Each primary criterion maps to one verification suite and reports one
visible PASS/FAIL line with its case count and wall time.  A criterion
fails loudly with the first few offending cases spelled out.  Each
suite's case count is pinned: it does not depend on the seed, and a
change to it changes the benchmark's verify-all report digest.
"""

import pytest

from lihopf import verify

CRITERIA = [
    (1, "golden",
     "frozen example values (coproducts, inversion, symbols, forms, "
     "matrices, lifted blocks, recurrence, integral evaluation)", 60.0, 42),
    (2, "coassoc",
     "coassociativity of both coproducts on the bounded sweeps", 300.0, 148),
    (3, "inv-morphism",
     "inversion intertwines the two coproducts", 300.0, 36),
    (4, "variation",
     "variation matrices are grouplike, antipode-invertible, and satisfy "
     "dV = Omega V", 300.0, 30),
    (5, "forms",
     "one-form laws: projection route, products, pullbacks, matrix "
     "identities, chain maps", 300.0, 182),
    (6, "iterint",
     "subsequence matrices are grouplike; evaluation is a coproduct "
     "morphism", 300.0, 772),
    (7, "numeric",
     "curvature evaluates flat at seeded points of the cover", 60.0, 200),
    (8, "structural",
     "projection idempotence, shuffle kernel, symbol multiplicativity, "
     "ordering, contraction composition, antipode law", 300.0, 225),
]


@pytest.mark.parametrize(
    "number,suite,title,budget,cases", CRITERIA,
    ids=["criterion-%d-%s" % (n, s) for n, s, _, _, _ in CRITERIA])
def test_criterion(number, suite, title, budget, cases, capsys):
    report = verify.run_suite(suite)
    line = "%s criterion %d [%s]: %d cases, %d failures, %.2fs" % (
        "PASS" if report.passed else "FAIL", number, suite,
        report.cases, len(report.failures), report.seconds)
    with capsys.disabled():
        print("\n" + line)
    assert report.passed, "\n".join(
        [line, "criterion: " + title] + report.failures[:10])
    assert report.seconds < budget, (
        "criterion %d exceeded its time budget: %.1fs >= %.0fs"
        % (number, report.seconds, budget))
    assert report.cases == cases, (
        "criterion %d ran %d cases, pinned at %d"
        % (number, report.cases, cases))
