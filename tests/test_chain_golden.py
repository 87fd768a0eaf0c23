"""Golden vectors: the chain-digest commitments are frozen, byte for byte.

The wire goldens (``tests/test_wire_golden.py``) freeze how proofs are
*encoded*; these freeze what the Section 5.1 chain digest schemes *compute*.
Every signed chain, every stored sqlite chain and every deployed verifier
depends on these bytes, so a mismatch means previously signed data no longer
verifies.  Each vector records, for one ``(value, total)``:

* ``commitment`` — the digest the owner folds into ``g(r)``,
* ``entry_assist(...).mht_root`` and the verifier's ``recompute_from_value``,
* ``boundary_proof`` for a few ``delta_c`` (canonical and non-canonical
  selections) and the verifier's ``recompute_from_boundary``.

The cases cover ``B`` in {2, 3}, a domain width that is an exact power of
``B`` and one that is not, values at both domain edges, ``total = 0`` and
exponents whose preferred representations drop a digit.  An intentional
change to the digest construction must regenerate the file::

    PYTHONPATH=src python tests/test_chain_golden.py --regen
"""

import functools
import json
import os

import pytest

from repro.core import polynomial
from repro.core.digest import ConceptualChainScheme, OptimizedChainScheme

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "chain_vectors.json")

#: (base, domain width): an exact power of the base and a width that is not.
OPTIMIZED_CONFIGS = ((2, 1024), (2, 1000), (3, 729), (3, 1000))
CONCEPTUAL_WIDTH = 40


def _hex(digest):
    return None if digest is None else digest.hex()


def _boundary_json(assist):
    proof = assist.mht_proof
    return {
        "intermediate_digests": [digest.hex() for digest in assist.intermediate_digests],
        "used_canonical": assist.used_canonical,
        "mht_root": _hex(assist.mht_root),
        "canonical_digest": _hex(assist.canonical_digest),
        "mht_proof": None
        if proof is None
        else {
            "leaf_index": proof.leaf_index,
            "siblings": [[digest.hex(), is_left] for digest, is_left in proof.siblings],
            "tree_size": proof.tree_size,
        },
    }


def _delta_cs(total, base, num_digits):
    """Deterministic ``delta_c`` choices: 0, ``total``, and the smallest
    canonical and non-canonical selections found below ``total``."""
    chosen = {0, total}
    found = set()
    for delta_c in range(total + 1):
        canonical = polynomial.select_boundary_representation(
            total, delta_c, base, num_digits
        ).is_canonical
        if canonical not in found:
            found.add(canonical)
            chosen.add(delta_c)
            if len(found) == 2:
                break
    return sorted(chosen)


def _vector(scheme, value, total, delta_cs):
    commitment = scheme.commitment(value, total)
    assist = scheme.entry_assist(value, total)
    boundaries = []
    for delta_c in delta_cs:
        proof = scheme.boundary_proof(value, total, delta_c)
        boundaries.append(
            {
                "delta_c": delta_c,
                "proof": _boundary_json(proof),
                "recomputed": scheme.recompute_from_boundary(delta_c, proof).hex(),
            }
        )
    return {
        "commitment": commitment.hex(),
        "entry_mht_root": _hex(assist.mht_root),
        "recompute_from_value": scheme.recompute_from_value(value, total, assist).hex(),
        "boundaries": boundaries,
    }


def _edge_cases(width):
    """(namespace, value, total) at both domain edges, inside, and total = 0.

    The domain is ``[0, width]``: upper chains use ``total = width - v - 1``,
    lower chains ``total = v - 1``, delimiters the full ``width - 1``.
    """
    cases = []
    for value in (0, 1, width // 3, width // 2 + 1, width - 2, width - 1):
        cases.append(("upper", value, width - value - 1))
    for value in (1, 2, width // 3, width // 2 + 1, width - 1, width):
        cases.append(("lower", value, value - 1))
    return cases


@functools.lru_cache(maxsize=None)
def build_vectors():
    """name -> computed chain-digest artifacts, all fully deterministic."""
    vectors = {}
    for base, width in OPTIMIZED_CONFIGS:
        schemes = {
            namespace: OptimizedChainScheme(width, namespace, base=base)
            for namespace in ("upper", "lower")
        }
        num_digits = schemes["upper"].num_digits
        for namespace, value, total in _edge_cases(width):
            name = f"optimized-B{base}-W{width}-{namespace}-v{value}-t{total}"
            vectors[name] = _vector(
                schemes[namespace], value, total, _delta_cs(total, base, num_digits)
            )
    for namespace, value, total in _edge_cases(CONCEPTUAL_WIDTH):
        scheme = ConceptualChainScheme(CONCEPTUAL_WIDTH, namespace)
        name = f"conceptual-W{CONCEPTUAL_WIDTH}-{namespace}-v{value}-t{total}"
        vectors[name] = _vector(scheme, value, total, sorted({0, total // 2, total}))
    return vectors


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_file_covers_every_vector():
    assert sorted(_load_golden()) == sorted(build_vectors())


def test_cases_cover_the_representation_edge_cases():
    """The case list reaches every branch the vectors are meant to freeze."""
    for base, width in OPTIMIZED_CONFIGS:
        num_digits = polynomial.num_digits_for(width, base)
        totals = [total for _, _, total in _edge_cases(width)]
        assert 0 in totals and width - 1 in totals
        assert any(
            not representation.is_valid
            for total in totals
            for representation in polynomial.all_preferred_representations(
                total, base, num_digits
            )
        ), (base, width)
        selections = {
            polynomial.select_boundary_representation(
                total, delta_c, base, num_digits
            ).is_canonical
            for total in totals
            for delta_c in _delta_cs(total, base, num_digits)
        }
        assert selections == {True, False}, (base, width)
    exact = {base ** polynomial.num_digits_for(width, base) == width for base, width in OPTIMIZED_CONFIGS}
    assert exact == {True, False}


@pytest.mark.parametrize("name", sorted(build_vectors()))
def test_golden_vector(name):
    golden = _load_golden()
    vector = build_vectors()[name]
    assert vector == golden[name], (
        f"chain-digest output of {name!r} changed; previously signed chains would "
        "no longer verify (regenerate only for an intentional construction change: "
        "python tests/test_chain_golden.py --regen)"
    )
    # Both verifier paths land on the owner's commitment.
    assert vector["recompute_from_value"] == vector["commitment"]
    for boundary in vector["boundaries"]:
        assert boundary["recomputed"] == vector["commitment"]


def _regen() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    vectors = build_vectors()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(vectors, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(vectors)} vectors to {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
