"""Records that hold numpy arrays compare and hash by identity: `==` on
two equal-valued records answers without raising, and the records can
be set members and dict keys."""

import pytest

from quasieq import (
    AffineFractionalOracle,
    BoxSet,
    GeneratorConfig,
    SolverConfig,
    check_paramonotone,
    dinkelbach_minimize,
    generate_instances,
    normal_subgradient_solve,
)


def _record_pairs():
    """Two separately built, equal-valued copies of each record type."""
    def build():
        inst = generate_instances(GeneratorConfig(n=2, count=1, seed=7))[0]
        oracle = AffineFractionalOracle(inst)
        report = normal_subgradient_solve(oracle, inst.box,
                                          SolverConfig(variant="ng2", max_iter=3))
        return {
            "BoxSet": BoxSet.uniform(2, 1.0, 3.0),
            "AffineFractionalInstance": inst,
            "AffineFractionalOracle": oracle,
            "DinkelbachResult": dinkelbach_minimize([1.0, -1.0], 0.5, [0.0, 1.0], 2.0, inst.box),
            "IterationRecord": report.trace[0],
            "SolveReport": report,
            "ParamonotonicityReport": check_paramonotone(inst),
        }
    first, second = build(), build()
    return [pytest.param(name, first[name], second[name], id=name) for name in first]


PAIRS = _record_pairs()


@pytest.mark.parametrize("name, a, b", PAIRS)
def test_equal_values_compare_by_identity(name, a, b):
    assert a == a
    assert (a == b) is False
    assert a != b


@pytest.mark.parametrize("name, a, b", PAIRS)
def test_records_hash_and_form_sets(name, a, b):
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
    assert {a: name}[a] == name
