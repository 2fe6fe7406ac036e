"""Property test: a model served by binding M equals a fresh extraction.

:class:`~repro.graphs.server.ModelServer` serves a model registered as a
:class:`~repro.ir.workloads.ModelConfig` from a per-model template: the
layer graph is extracted at the first served M and at M + 1, and every
later M is substituted into the dimensions that read M.  This property draws
random transformer configs (width, FFN expansion, standard or gated FFN) and
random serve sizes — including sizes equal to the model's own widths, which
a bound dimension must not be confused with — and checks every served plan
against a fresh build, extraction and assembly of the same layer.

Budgets come from the hypothesis profiles registered in ``conftest.py``
(``dev`` by default, ``ci`` in the CI fuzz step).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.errors import FusionError
from repro.graphs import ModelServer, extract_chains
from repro.graphs.plan import assemble_plan
from repro.ir.graph import ChainKind
from repro.ir.workloads import ModelConfig

#: Widths stay multiples of 16 so most chains fuse (a few do not, which
#: exercises the unfusable path), and small so each new shape's fusion
#: search is quick.
_WIDTHS = st.integers(min_value=1, max_value=32).map(lambda units: 16 * units)


@st.composite
def configs_and_sizes(draw):
    """A random transformer config and the sizes to serve it at."""
    hidden = draw(_WIDTHS)
    intermediate = draw(_WIDTHS)
    kind = draw(st.sampled_from([ChainKind.STANDARD_FFN, ChainKind.GATED_FFN]))
    config = ModelConfig("prop", 1, hidden, intermediate, 1, kind)
    sizes = st.one_of(
        st.integers(min_value=1, max_value=600),
        st.sampled_from([hidden, intermediate, hidden + 1, intermediate - 1]),
    )
    return config, draw(st.lists(sizes, min_size=2, max_size=6))


@pytest.fixture(scope="module")
def server(h100):
    with ModelServer(device=h100, top_k=1, max_tile=64, m_bins=(64,)) as server:
        yield server


@given(drawn=configs_and_sizes())
def test_bound_serve_equals_fresh_extraction_and_assembly(server, drawn):
    config, sizes = drawn
    # Re-registering drops the previous example's template and memo.
    server.register("prop", config)
    for m in sizes:
        served = server.serve("prop", m=m)
        graph = config.layer_graph(seq_len=m)
        by_chain = {s.name: s for s in served.plan.segments if s.chain is not None}

        def resolve(match):
            segment = by_chain[match.chain.name]
            if not segment.fused:
                raise FusionError(f"{match.chain.name} is unfusable")
            return segment.kernel, segment.source, segment.cache_hit, segment.time_us

        fresh = assemble_plan(
            graph.name, extract_chains(graph, rewrite=True), resolve, server.simulator
        )
        assert served.plan.extraction == fresh.extraction
        assert [repr(s) for s in served.plan.segments] == [
            repr(s) for s in fresh.segments
        ]
        assert served.plan.time_us == fresh.time_us
