import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def bench_workloads():
    """bench/workloads.py, loaded read-only: the benchmark's seeded inputs."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def ranked_pairs(monkeypatch):
    """Per general-position certificate built from now on, the pairs its
    __init__ decides, in the order decided: (sigma, tau - sigma) for each
    vertex-sharing pair (sigma, tau) of tops that the sharing pass decides
    (MaximalVerdicts._sharing_independent), for each vertex-disjoint pair
    (sigma, tau) of tops with the most vertices that the packed walk decides
    in sigma's row, and for each pair that perturb._mixed_pairs yields,
    (sigma, tau) in top order.  Decisions outside __init__, such as a
    test's own, are not recorded."""
    import plgp.perturb
    from plgp.exact import PackedPairings

    groups = []
    building = []
    verdicts = plgp.perturb.MaximalVerdicts
    sharing = verdicts._sharing_independent
    zeros = PackedPairings.zeros
    mixed_pairs = plgp.perturb._mixed_pairs
    init = verdicts.__init__

    def recording(self, sigma, tau, *args):
        if building:
            groups[-1].append((sigma, tau - sigma))
        return sharing(self, sigma, tau, *args)

    def pairing(self, p, start=0):
        # row start - 1 pairs its top with every later one of as many
        # vertices; the walk keeps the vertex-disjoint pairs, the sharing
        # pass decided the others
        if building:
            tops = building[-1].complex.maximal_simplices()
            k = max(map(len, tops))
            tops = [t for t in tops if len(t) == k]
            sigma = tops[start - 1]
            groups[-1].extend(
                (sigma, tau) for tau in tops[start:] if sigma.isdisjoint(tau)
            )
        return zeros(self, p, start)

    def mixed(tops, k):
        for i, j in mixed_pairs(tops, k):
            if building:
                groups[-1].append((tops[i], tops[j]))
            yield i, j

    def starting(self, h):
        groups.append([])
        building.append(h)
        try:
            init(self, h)
        finally:
            building.pop()

    monkeypatch.setattr(verdicts, "_sharing_independent", recording)
    monkeypatch.setattr(PackedPairings, "zeros", pairing)
    monkeypatch.setattr(plgp.perturb, "_mixed_pairs", mixed)
    monkeypatch.setattr(verdicts, "__init__", starting)
    return groups
