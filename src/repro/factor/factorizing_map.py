"""Factorizing maps (paper Section 2.3.1).

A :class:`FactorizingMap` bundles a product graph ``G``, a factor graph
``G'`` and the map ``f : V -> V'``, and verifies on construction the
three defining properties:

1. ``f`` is surjective;
2. ``f`` respects labels: ``l(v) = l'(f(v))``;
3. ``f`` is a local isomorphism: ``f`` restricted to ``Γ(v)`` is a
   bijection onto ``Γ(f(v))``.

The class also exposes the standard consequences used by the paper:
fibers all have the same size ``m`` with ``|V| = m · |V'|``, the ``m = 1``
case is a labeled isomorphism, and maps compose.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.exceptions import FactorError
from repro.graphs.labeled_graph import LabeledGraph, Node, sorted_nodes


class FactorizingMap:
    """A verified factorizing map ``f`` inducing ``factor ⪯_f product``."""

    def __init__(
        self,
        product: LabeledGraph,
        factor: LabeledGraph,
        mapping: Mapping[Node, Node],
        check: bool = True,
    ) -> None:
        self._product = product
        self._factor = factor
        self._mapping = dict(mapping)
        if check:
            self._verify()

    # ------------------------------------------------------------------

    @property
    def product(self) -> LabeledGraph:
        """The product (covering) graph ``G``."""
        return self._product

    @property
    def factor(self) -> LabeledGraph:
        """The factor (base) graph ``G'``."""
        return self._factor

    def __call__(self, v: Node) -> Node:
        try:
            return self._mapping[v]
        except KeyError:
            raise FactorError(f"map is undefined on node {v!r}") from None

    def as_dict(self) -> dict[Node, Node]:
        return dict(self._mapping)

    def fiber(self, target: Node) -> tuple[Node, ...]:
        """All product nodes mapping to ``target`` (sorted)."""
        if not self._factor.has_node(target):
            raise FactorError(f"unknown factor node {target!r}")
        return tuple(sorted_nodes(v for v, t in self._mapping.items() if t == target))

    @property
    def multiplicity(self) -> int:
        """The fiber size ``m`` with ``|V| = m * |V'|``."""
        return self._product.num_nodes // self._factor.num_nodes

    @property
    def is_isomorphism(self) -> bool:
        """Whether ``m = 1``, i.e. the map is a labeled isomorphism."""
        return self._product.num_nodes == self._factor.num_nodes

    def compose(self, next_map: "FactorizingMap") -> "FactorizingMap":
        """The composition ``next_map ∘ self`` — factors compose:
        if ``G' ⪯ G`` and ``G'' ⪯ G'`` then ``G'' ⪯ G``."""
        if next_map.product is not self._factor and next_map.product != self._factor:
            raise FactorError(
                "composition requires the next map's product to equal this map's factor"
            )
        composed = {v: next_map(self._mapping[v]) for v in self._product.nodes}
        return FactorizingMap(self._product, next_map.factor, composed)

    # ------------------------------------------------------------------

    def _verify(self) -> None:
        """Check the three defining properties.

        The happy path runs entirely on the CSR mirrors of the two
        graphs — dense int images, sorted int row comparisons — which is
        what keeps quotient construction array-native end to end.  Any
        discrepancy (or a mapping the fast path cannot index) falls back
        to the original object-walking checks, which re-scan in the
        historical order and raise the exact historical error.
        """
        if self._verify_fast():
            return
        self._verify_slow()

    def _verify_fast(self) -> bool:
        product, factor, mapping = self._product, self._factor, self._mapping
        if product.layer_names != factor.layer_names:
            return False
        pcsr = product._csr_mirror()
        fcsr = factor._csr_mirror()
        find = fcsr.index.get
        try:
            image = [find(mapping[v], -1) for v in pcsr.nodes]
        except (KeyError, TypeError):  # undefined or unhashable image
            return False
        if -1 in image:
            return False
        # Property 1: surjective.
        if len(set(image)) != fcsr.num_nodes:
            return False
        # Property 2: label-respecting — compare composed label values
        # through the per-graph rank tables (ranks themselves are
        # per-graph, so compare the ranked *values*).
        plabels, pranks = pcsr.label_values, pcsr.label_ranks
        flabels, franks = fcsr.label_values, fcsr.label_ranks
        for i in range(pcsr.num_nodes):
            if plabels[pranks[i]] != flabels[franks[image[i]]]:
                return False
        # Property 3: local isomorphism.  Image lists and target rows are
        # compared as sorted int lists; equality implies injectivity too,
        # because target rows never repeat an index.
        ig = image.__getitem__
        rows = [sorted(fcsr.adjacency[j]) for j in range(fcsr.num_nodes)]
        for i, neighbors in enumerate(pcsr.adjacency):
            if sorted(map(ig, neighbors)) != rows[image[i]]:
                return False
        # Consequence: equal fiber sizes.
        sizes = [0] * fcsr.num_nodes
        for j in image:
            sizes[j] += 1
        return len(set(sizes)) == 1

    def _verify_slow(self) -> None:
        product, factor, mapping = self._product, self._factor, self._mapping

        undefined = [v for v in product.nodes if v not in mapping]
        if undefined:
            raise FactorError(f"map is undefined on product nodes {undefined!r}")
        out_of_range = sorted(
            {t for t in mapping.values() if not factor.has_node(t)}, key=repr
        )
        if out_of_range:
            raise FactorError(f"map hits nodes outside the factor: {out_of_range!r}")

        # Property 1: surjective.
        image = {mapping[v] for v in product.nodes}
        uncovered = [t for t in factor.nodes if t not in image]
        if uncovered:
            raise FactorError(f"map is not surjective; uncovered: {uncovered!r}")

        # Property 2: label-respecting.
        if product.layer_names != factor.layer_names:
            raise FactorError(
                f"layer mismatch: product has {product.layer_names!r}, "
                f"factor has {factor.layer_names!r}"
            )
        for v in product.nodes:
            if product.label(v) != factor.label(mapping[v]):
                raise FactorError(
                    f"label not respected at {v!r}: {product.label(v)!r} != "
                    f"{factor.label(mapping[v])!r} at image {mapping[v]!r}"
                )

        # Property 3: local isomorphism.
        for v in product.nodes:
            images = [mapping[u] for u in product.neighbors(v)]
            targets = list(factor.neighbors(mapping[v]))
            if len(set(images)) != len(images):
                raise FactorError(
                    f"f|Γ({v!r}) is not injective: images {sorted(images, key=repr)!r}"
                )
            if sorted(images, key=repr) != sorted(targets, key=repr):
                raise FactorError(
                    f"f|Γ({v!r}) is not onto Γ({mapping[v]!r}): images "
                    f"{sorted(images, key=repr)!r} vs targets {sorted(targets, key=repr)!r}"
                )

        # Consequence: equal fiber sizes (connectedness makes this automatic,
        # so a violation indicates an internal inconsistency).
        sizes = {t: 0 for t in factor.nodes}
        for v in product.nodes:
            sizes[mapping[v]] += 1
        if len(set(sizes.values())) != 1:
            raise FactorError(
                f"fibers have unequal sizes {sizes!r}; factor/product pair is inconsistent"
            )

    def __repr__(self) -> str:
        return (
            f"FactorizingMap(|V|={self._product.num_nodes} -> "
            f"|V'|={self._factor.num_nodes}, m={self.multiplicity})"
        )
