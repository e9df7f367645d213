"""Fixtures shared by every test module."""

import pytest

from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import linalg as L
from gkmhess import maps
from gkmhess.hessenberg import HessenbergFunction


@pytest.fixture(autouse=True)
def fresh_twins():
    """maps.plain_twin and maps.plain_character keep what they have made
    until cli.main clears them; a test that calls them from the library,
    or that patches what they read, must neither see nor leave a twin or
    a character of another test."""
    maps.clear_plain_caches()
    yield
    maps.clear_plain_caches()


class Store:
    """Solved spaces and what the tests read off them, keyed by (h, side)
    and kept for the whole session: the acceptance criteria and the
    trace-path comparison of test_isotypic read the same full kernels."""

    def __init__(self):
        self.spaces: dict = {}
        self.characters: dict = {}
        self.series: dict = {}
        self.numerators: dict = {}
        self.top_kernels: dict = {}

    def space(self, h: HessenbergFunction, side: str):
        key = (h.values, side)
        if key not in self.spaces:
            space = self.spaces[key] = CH.solve_graph(G.build_graph(h, side))
            kind = "dot" if side == "x" else "dagger"
            self.numerators[key] = CH.hilbert_numerator(space)
            # the direct quotient of the solved graph
            char = self.characters[key] = CH.graded_character(space, kind)
            self.series[key] = CH.frobenius_of_character(char)
        return self.spaces[key]

    def top_kernel(self, h: HessenbergFunction, side: str):
        """The kernel of degree top_degree + 1 in n variables, which the
        default solve only ranks."""
        key = (h.values, side)
        if key not in self.top_kernels:
            g = self.space(h, side).graph
            k = g.top_degree + 1
            self.top_kernels[key] = L.kernel_of_rows(
                CH.constraint_rows(g, k),
                len(g.vertices) * len(CH.monomials(h.n, k)))
        return self.top_kernels[key]

    def compute(self, h: HessenbergFunction, side: str):
        self.space(h, side)
        return self.numerators[h.values, side], self.series[h.values, side]

    def character(self, h: HessenbergFunction, side: str):
        self.space(h, side)
        return self.characters[h.values, side]


@pytest.fixture(scope="session")
def store():
    return Store()
