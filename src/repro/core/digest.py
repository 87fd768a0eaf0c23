"""Chain digest schemes: the ``g(r)`` building blocks of formulas (2) and (3).

A *chain digest scheme* commits to an integer value ``v`` through an iterated
hash whose exponent is the distance of ``v`` from a domain bound:

* an **upper chain** with exponent ``delta_t = U - v - 1`` lets the publisher
  prove ``v < alpha`` by releasing the intermediate digest at exponent
  ``delta_e = alpha - v - 1``; the verifier walks it ``delta_c = U - alpha``
  further steps and compares against the committed digest,
* a **lower chain** with exponent ``delta_t = v - L - 1`` symmetrically proves
  ``v > beta`` (release exponent ``v - beta - 1``; the verifier walks
  ``beta - L`` steps).

Both directions share the same machinery, parameterised by a *namespace* so the
two chains of one record can never be confused for each other.

Two interchangeable implementations are provided:

* :class:`ConceptualChainScheme` — the direct construction of formula (2);
  O(domain width) hashing, fine for small domains, teaching and tests,
* :class:`OptimizedChainScheme` — the Section 5.1 construction; the exponent is
  decomposed in base ``B``, one short chain per digit, the ``m`` preferred
  non-canonical representations are committed under a Merkle tree, and hashing
  drops to O(B · log_B(domain width)).

Each optimized-scheme call walks every ``(anchor, position)`` digit chain
once, up to the largest digit any representation uses there (at most
``2B - 1``), and reads the canonical digest, every representation leaf and
every boundary intermediate off those walks.  The owner and the publisher
keep no digest memos.  The one memo left is the verifier's bounded map from
``(value, total)`` to the canonical digest: a client verifying many ranges
over one manifest meets the same entries again and again.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cache import bounded_put
from repro.core import polynomial
from repro.core.errors import CheatingAttemptError
from repro.crypto.encoding import encode_many, int_to_bytes
from repro.crypto.hashing import (
    HASH_COUNTER,
    HashFunction,
    IteratedHasher,
    chain_base_preimage,
    default_hash,
    resolve_hash_constructor,
)
from repro.crypto.merkle import MerkleProof, MerkleTree

__all__ = [
    "EntryAssist",
    "BoundaryAssist",
    "ChainDigestScheme",
    "ConceptualChainScheme",
    "OptimizedChainScheme",
]

_EMPTY_REPRESENTATION_SENTINEL = b"__no_preferred_representations__"

#: Bound on the verifier's canonical-digest memo (FIFO eviction).
_CANONICAL_MEMO_MAX = 8192


@dataclass(frozen=True)
class EntryAssist:
    """Publisher-supplied help for recomputing the chain digest of a *known* value.

    The conceptual scheme needs no help (the verifier re-hashes from the value
    itself); the optimized scheme ships the root of the Merkle tree over the
    non-canonical representations, which the verifier cannot derive from the
    value alone without recomputing every representation.
    """

    mht_root: Optional[bytes] = None

    @property
    def digest_count(self) -> int:
        """Number of digests transmitted (for VO size accounting)."""
        return 0 if self.mht_root is None else 1


@dataclass(frozen=True)
class BoundaryAssist:
    """Publisher-supplied proof that a *hidden* value lies beyond a query bound.

    Contents depend on the scheme:

    * conceptual — a single intermediate digest at exponent ``delta_e``;
    * optimized — one intermediate digest per base-``B`` digit, plus either the
      Merkle root over the unused non-canonical representations (when the
      canonical representation was selected) or the canonical representation's
      digest together with a Merkle path covering the unused representations.
    """

    intermediate_digests: Tuple[bytes, ...]
    used_canonical: bool = True
    mht_root: Optional[bytes] = None
    canonical_digest: Optional[bytes] = None
    mht_proof: Optional[MerkleProof] = None

    @property
    def digest_count(self) -> int:
        """Number of digests transmitted (for VO size accounting)."""
        count = len(self.intermediate_digests)
        if self.mht_root is not None:
            count += 1
        if self.canonical_digest is not None:
            count += 1
        if self.mht_proof is not None:
            count += self.mht_proof.digest_count
        return count


class ChainDigestScheme(abc.ABC):
    """Interface shared by the conceptual and optimized chain digest schemes.

    Every call hashes from the value's anchor, so the owner, the publisher
    and the verifier compute each digest the same way.
    """

    def __init__(
        self,
        domain_width: int,
        namespace: str,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        if domain_width < 2:
            raise ValueError("domain width must be at least 2")
        self.domain_width = domain_width
        self.namespace = namespace
        self.hash_function = hash_function or default_hash()
        self.hasher = IteratedHasher(self.hash_function)

    # -- anchors -----------------------------------------------------------------

    def _anchor(self, value: int) -> bytes:
        """Canonical anchor pre-image binding the namespace and the value."""
        return encode_many([self.namespace, int(value)])

    # -- abstract API ---------------------------------------------------------------

    @abc.abstractmethod
    def commitment(self, value: int, total: int) -> bytes:
        """The digest the owner folds into ``g(r)`` for chain exponent ``total``."""

    @abc.abstractmethod
    def entry_assist(self, value: int, total: int) -> EntryAssist:
        """What the publisher ships for a result entry whose value the user knows."""

    @abc.abstractmethod
    def recompute_from_value(
        self, value: int, total: int, assist: EntryAssist
    ) -> bytes:
        """Verifier side: rebuild the commitment from the (known) value."""

    @abc.abstractmethod
    def boundary_proof(self, value: int, total: int, delta_c: int) -> BoundaryAssist:
        """Publisher side: prove the hidden value's chain without revealing it.

        ``delta_c`` is the verifier-known part of the exponent
        (``U - alpha`` for upper chains, ``beta - L`` for lower chains).
        Raises :class:`CheatingAttemptError` when the claim is false, i.e. when
        ``total < delta_c`` — an honest publisher cannot fabricate the proof.
        """

    @abc.abstractmethod
    def recompute_from_boundary(self, delta_c: int, assist: BoundaryAssist) -> bytes:
        """Verifier side: rebuild the commitment from a boundary proof."""


class ConceptualChainScheme(ChainDigestScheme):
    """Formula (2): ``g`` component is the full iterated hash ``h^{total}(value)``.

    Simple and exactly what Section 3.1 describes, but the number of hash
    invocations is linear in the domain width — use only for small domains.
    """

    def commitment(self, value: int, total: int) -> bytes:
        if total < 0:
            raise ValueError("chain exponent must be non-negative")
        return self.hasher.iterate(self._anchor(value), total, suffix=0)

    def entry_assist(self, value: int, total: int) -> EntryAssist:
        return EntryAssist(mht_root=None)

    def recompute_from_value(
        self, value: int, total: int, assist: EntryAssist
    ) -> bytes:
        return self.commitment(value, total)

    def boundary_proof(self, value: int, total: int, delta_c: int) -> BoundaryAssist:
        delta_e = total - delta_c
        if delta_e < 0:
            raise CheatingAttemptError(
                f"h^{{{delta_e}}} is undefined: the value does not satisfy the claimed bound"
            )
        intermediate = self.hasher.iterate(self._anchor(value), delta_e, suffix=0)
        return BoundaryAssist(intermediate_digests=(intermediate,), used_canonical=True)

    def recompute_from_boundary(self, delta_c: int, assist: BoundaryAssist) -> bytes:
        if len(assist.intermediate_digests) != 1:
            raise ValueError("conceptual boundary proofs carry exactly one digest")
        return self.hasher.extend(assist.intermediate_digests[0], delta_c)


class OptimizedChainScheme(ChainDigestScheme):
    """Section 5.1: base-``B`` decomposition of the chain exponent.

    Parameters
    ----------
    domain_width:
        ``U - L`` of the underlying key domain.
    namespace:
        Chain namespace (``"upper"``, ``"lower"`` …).
    base:
        The polynomial base ``B``; the paper shows user computation is
        minimised for ``B`` in {2, 3}.
    """

    def __init__(
        self,
        domain_width: int,
        namespace: str,
        base: int = 2,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        super().__init__(domain_width, namespace, hash_function)
        if base < 2:
            raise ValueError("the polynomial base B must be at least 2")
        self.base = base
        self.num_digits = polynomial.num_digits_for(domain_width, base)
        self._new = resolve_hash_constructor(self.hash_function.name)
        # h^0(anchor | p) hashes chain_base_preimage(anchor, p); the anchor's
        # namespace field and the position suffixes are the same every call.
        self._namespace_preimage = chain_base_preimage(encode_many([namespace]))
        self._position_tags = [b"|" + int_to_bytes(p) for p in range(self.num_digits)]
        #: (value, total) -> canonical digest, filled by recompute_from_value.
        self._canonical_memo: "OrderedDict[Tuple[int, int], bytes]" = OrderedDict()

    # -- internal helpers -------------------------------------------------------

    def _chain_bases(self, value: int) -> List[bytes]:
        """``chain_base_preimage(anchor, p)`` for every digit position ``p``."""
        prefix = self._namespace_preimage + encode_many([int(value)])
        return [prefix + tag for tag in self._position_tags]

    def _walk(self, value: int, tops: Sequence[int]) -> List[List[bytes]]:
        """``chains[p][d] = h^d(anchor | p)`` for every ``d <= tops[p]``.

        One pass per digit position; the hashes run are added to
        :data:`HASH_COUNTER` in one step.
        """
        new = self._new
        chains = []
        for base, top in zip(self._chain_bases(value), tops):
            digest = new(base).digest()
            chain = [digest]
            for _ in range(top):
                digest = new(digest).digest()
                chain.append(digest)
            chains.append(chain)
        HASH_COUNTER.count += len(chains) + sum(tops)
        return chains

    def _walk_all(self, value: int, canonical: Tuple[int, ...]) -> List[List[bytes]]:
        """Digit chains long enough for every representation of an exponent.

        A preferred non-canonical representation (see
        :func:`~repro.core.polynomial.preferred_representation`) raises digit
        0 by ``B`` and digits ``1..m-1`` by at most ``B - 1``; no
        representation exceeds the canonical top digit.
        """
        if len(canonical) == 1:
            return self._walk(value, canonical)
        base = self.base
        tops = [canonical[0] + base]
        tops.extend(digit + base - 1 for digit in canonical[1:-1])
        tops.append(canonical[-1])
        return self._walk(value, tops)

    def _canonical_digits(self, exponent: int) -> Tuple[int, ...]:
        return polynomial.to_canonical_digits(exponent, self.base, self.num_digits)

    def _canonical_digest(
        self, chains: List[List[bytes]], canonical: Tuple[int, ...]
    ) -> bytes:
        """Digest of the canonical representation: hash of its digit-chain points."""
        return self.hash_function.combine(
            *[chain[digit] for chain, digit in zip(chains, canonical)]
        )

    def _representation_tree(
        self, chains: List[List[bytes]], canonical: Tuple[int, ...]
    ) -> MerkleTree:
        """Merkle tree over the digests of the preferred non-canonical representations.

        Leaf ``i`` hashes the digit-chain points of
        :func:`~repro.core.polynomial.preferred_representation` ``i``: digit 0
        at ``c_0 + B``, digits ``1..i`` at ``c_p + B - 1``, digit ``i + 1`` at
        ``c_{i+1} - 1`` (dropped when ``c_{i+1}`` is 0) and the canonical
        digits above, read off the walked chains.
        """
        if len(canonical) == 1:  # a single digit has no preferred representations
            return MerkleTree([_EMPTY_REPRESENTATION_SENTINEL], self.hash_function)
        new = self._new
        base = self.base
        points = [chain[digit] for chain, digit in zip(chains, canonical)]
        raised = [chains[0][canonical[0] + base]]
        raised.extend(
            chains[position][canonical[position] + base - 1]
            for position in range(1, len(canonical) - 1)
        )
        leaves = []
        for position in range(1, len(canonical)):
            borrow = canonical[position]
            lowered = [chains[position][borrow - 1]] if borrow else []
            leaves.append(
                new(b"".join(raised[:position] + lowered + points[position + 1 :])).digest()
            )
        HASH_COUNTER.count += len(leaves)
        return MerkleTree(leaves, self.hash_function)

    # -- owner side ----------------------------------------------------------------

    def commitment(self, value: int, total: int) -> bytes:
        if total < 0:
            raise ValueError("chain exponent must be non-negative")
        canonical = self._canonical_digits(total)
        chains = self._walk_all(value, canonical)
        return self.hash_function.combine(
            self._canonical_digest(chains, canonical),
            self._representation_tree(chains, canonical).root,
        )

    # -- publisher side ---------------------------------------------------------------

    def entry_assist(self, value: int, total: int) -> EntryAssist:
        canonical = self._canonical_digits(total)
        tree = self._representation_tree(self._walk_all(value, canonical), canonical)
        return EntryAssist(mht_root=tree.root)

    def boundary_proof(self, value: int, total: int, delta_c: int) -> BoundaryAssist:
        if total < delta_c:
            raise CheatingAttemptError(
                "the value does not satisfy the claimed bound; "
                "no valid representation of the intermediate exponent exists"
            )
        selected = polynomial.select_boundary_representation(
            total, delta_c, self.base, self.num_digits
        )
        delta_e_digits = polynomial.subtract_digitwise(
            selected.digits, self._canonical_digits(delta_c)
        )
        canonical = self._canonical_digits(total)
        chains = self._walk_all(value, canonical)
        intermediates = tuple(
            chain[digit] for chain, digit in zip(chains, delta_e_digits)
        )
        tree = self._representation_tree(chains, canonical)
        if selected.is_canonical:
            return BoundaryAssist(
                intermediate_digests=intermediates,
                used_canonical=True,
                mht_root=tree.root,
            )
        assert selected.index is not None
        return BoundaryAssist(
            intermediate_digests=intermediates,
            used_canonical=False,
            canonical_digest=self._canonical_digest(chains, canonical),
            mht_proof=tree.prove(selected.index),
        )

    # -- verifier side ---------------------------------------------------------------

    def recompute_from_value(
        self, value: int, total: int, assist: EntryAssist
    ) -> bytes:
        if assist.mht_root is None:
            raise ValueError(
                "the optimized scheme needs the representation-tree root to verify an entry"
            )
        key = (value, total)
        canonical_digest = self._canonical_memo.get(key)
        if canonical_digest is None:
            canonical = self._canonical_digits(total)
            canonical_digest = bounded_put(
                self._canonical_memo,
                key,
                self._canonical_digest(self._walk(value, canonical), canonical),
                _CANONICAL_MEMO_MAX,
            )
        return self.hash_function.combine(canonical_digest, assist.mht_root)

    def recompute_from_boundary(self, delta_c: int, assist: BoundaryAssist) -> bytes:
        if len(assist.intermediate_digests) != self.num_digits:
            raise ValueError(
                "boundary proof carries the wrong number of intermediate digests"
            )
        extend = self.hasher.extend
        representation_digest = self.hash_function.combine(
            *[
                extend(digest, steps)
                for digest, steps in zip(
                    assist.intermediate_digests, self._canonical_digits(delta_c)
                )
            ]
        )
        if assist.used_canonical:
            if assist.mht_root is None:
                raise ValueError("canonical boundary proof is missing the tree root")
            return self.hash_function.combine(representation_digest, assist.mht_root)
        if assist.canonical_digest is None or assist.mht_proof is None:
            raise ValueError(
                "non-canonical boundary proof needs the canonical digest and a Merkle path"
            )
        root = MerkleTree.root_from_payload(
            representation_digest, assist.mht_proof, self.hash_function
        )
        return self.hash_function.combine(assist.canonical_digest, root)
