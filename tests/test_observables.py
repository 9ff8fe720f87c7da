"""The observable table against the README and the harness kernels."""
import math
import re
from pathlib import Path

import pytest

from chromaplex.harness import substream
from chromaplex.models import sample_uniform_model
from chromaplex.observables import OBSERVABLES, SAMPLERS, kernels_for

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_table():
    text = " ".join(README.read_text().split())
    paragraph = re.search(r"Observables per model: (.*?)\. ", text).group(1)
    listed = {model: set() for model in SAMPLERS}
    for group in paragraph.split("; "):
        names = re.findall(r"`([^`]+)`", group)
        for model in re.search(r"\(([^)]*)\)$", group).group(1).split(", "):
            listed[model].update(names)
    assert listed == {
        model: {o.name for o in OBSERVABLES.values() if model in o.models}
        for model in SAMPLERS
    }


def test_dependencies_run_first_and_once():
    kernels = kernels_for(["jacket_parity_ok", "gurau_degree", "connected", "components",
                           "jacket_faces", "C1", "k_of_S"])
    assert len(kernels) == len(set(kernels)) == 5
    b2, degree = OBSERVABLES["b2"].kernel, OBSERVABLES["gurau_degree"].kernel
    assert kernels.index(b2) < kernels.index(degree)


@pytest.mark.parametrize("D", [1, 2, 3, 5])
def test_degree_kernel_matches_float_formula(D):
    # the harness stores float(degree_from_b2): it must equal the float
    # expression (D-1)!/2 * (D(D-1)/2 * p + D - b2) bit for bit
    fact = math.factorial(D - 1)
    for t in range(20):
        G = sample_uniform_model(D, 7 + t, substream(1, t))
        values = {}
        for kernel in kernels_for(["gurau_degree"]):
            kernel(G, values, None, None)
        float_formula = fact / 2 * (D * (D - 1) / 2 * G.p + D - values["b2"])
        assert float(values["gurau_degree"]) == float_formula

