"""The plain definitions that the optimized layers are checked against.

Each optimized layer of the pipeline keeps the code it replaced here,
once: the tests compare the layer with it on many inputs, and the perf
suite (``benchmarks/run_perf_suite.py``) times the layer against it and
asserts the same result.  The module needs only ``repro``, so the perf
suite imports it without the test dependencies.

* view truncation: :func:`reference_truncate`;
* quotient reconstruction from a view: :func:`reference_reconstruct`
  (recursive truncation and an all-pairs alias scan) and
  :func:`unshared_reconstruct` (one fresh walk per view);
* message freezing: :func:`reference_freeze`;
* random bit draws: :func:`reference_random_bits`, one ``str`` per bit;
* the assignment searches, every trial replayed from round 0 through
  ``execute``: :func:`reference_search`, :func:`reference_prg_search`
  and :func:`reference_extension`; and the lexicographic search as it
  played each trial of a snapshot: :func:`per_trial_search`;
* factor enumeration: :func:`reference_all_factors`, every equal-size
  partition inside the view classes;
* candidate enumeration: :func:`reference_enumerate_candidates`, every
  connected labeled graph on at most ``min(phase, max_nodes)`` nodes;
* view deepening: :func:`reference_deepen`, one ``_make_ranked`` per
  class at every stable level;
* graph derivation: :func:`reference_derive`, the topology rebuilt from
  its edges by the constructor, read back through :func:`csr_tables`;
  node order: :func:`reference_sorted_nodes` and :func:`reference_edges`,
  one ``_SortKey`` per id.
"""

from __future__ import annotations

import itertools

from repro.core.assignment_search import (
    TRIALS_PER_LENGTH,
    SearchBudgetExceeded,
    _PrefixMemo,
    enumerate_extensions,
)
from repro.core.candidates import Candidate, observed_marks
from repro.core.orders import finite_view_graph_sort_key
from repro.core.practical import quotient_from_view
from repro.exceptions import DerandomizationError, FactorError, GraphError
from repro.factor.factorizing_map import FactorizingMap
from repro.factor.prime import _divisors
from repro.factor.quotient import finite_view_graph
from repro.graphs.labeled_graph import LabeledGraph, _SortKey
from repro.runtime.engine import _absorb_all, _NotInternable, _output_changed, _wall_clock, execute
from repro.views import view_tree
from repro.views.local_views import ViewBuilder, all_views
from repro.views.refinement import refinement_indices
from repro.views.view_tree import ViewTree

# ----------------------------------------------------------------------
# Views: truncation and quotient reconstruction
# ----------------------------------------------------------------------


def reference_truncate(tree: ViewTree, depth: int, memo: dict) -> ViewTree:
    """The depth-``depth`` truncation, recursing through every child."""
    if tree.depth <= depth:
        return tree
    key = (id(tree), depth)
    if key not in memo:
        if depth == 1:
            memo[key] = ViewTree.make(tree.mark, ())
        else:
            memo[key] = ViewTree.make(
                tree.mark, [reference_truncate(c, depth - 1, memo) for c in tree.children]
            )
    return memo[key]


def _reference_quotient_edges(view, radius, memo):
    """``quotient_from_view``'s aliases and edges, collected by a walk
    that truncates every subtree and matched by scanning every alias."""
    aliases = []
    seen_alias = set()
    best_level = {}
    frontier = [(view, 1)]
    while frontier:
        tree, level = frontier.pop()
        if best_level.get(id(tree), radius + 1) <= level:
            continue
        best_level[id(tree)] = level
        alias = reference_truncate(tree, radius, memo)
        if id(alias) not in seen_alias:
            seen_alias.add(id(alias))
            aliases.append(alias)
        if level < radius:
            for child in tree.children:
                frontier.append((child, level + 1))
    aliases.sort(key=lambda t: t.sort_key())
    edges = set()
    for i, alias in enumerate(aliases):
        for child in alias.children:
            (j,) = [
                k
                for k, other in enumerate(aliases)
                if reference_truncate(other, max(1, radius - 1), memo) is child
            ]
            edges.add((min(i, j), max(i, j)))
    return edges


def reference_reconstruct(views, graph):
    """Each node's rebuilt quotient edges at radius ``n``, from its own
    view alone."""
    memo: dict = {}
    return [_reference_quotient_edges(views[v], graph.num_nodes, memo) for v in graph.nodes]


def unshared_reconstruct(views, graph):
    """Each node's rebuilt quotient at radius ``n``, one fresh walk per
    distinct view."""
    radius = graph.num_nodes
    rebuilt = {tree: quotient_from_view(tree, radius) for tree in dict.fromkeys(views.values())}
    return [rebuilt[views[v]] for v in graph.nodes]


def reference_deepen(builder: ViewBuilder, depth: int) -> None:
    """Deepen ``builder`` to ``depth`` with one ``_make_ranked`` per class
    at every level."""
    while len(builder._levels) < depth and not builder._stable:
        builder._extend()
    levels, counts = builder._levels, builder._counts
    if len(levels) >= depth:
        return
    csr = builder._csr
    colors, count = levels[-1][1], counts[-1]
    if builder._rep_order is None:
        builder._rep_order = builder._first_member_order(colors, count)
    classes = [
        (
            colors[rep],
            builder._rank_marks[csr.label_ranks[rep]],
            builder._rank_mark_ids[csr.label_ranks[rep]],
            [colors[u] for u in csr.adjacency[rep]],
        )
        for rep in builder._rep_order
    ]
    prev_trees = levels[-1][0]
    while len(levels) < depth:
        trees = [None] * count
        for c, mark, mark_id, row in classes:
            trees[c] = view_tree._make_ranked(mark, mark_id, [prev_trees[d] for d in row])
        view_tree._record_drops(trees, prev_trees)
        levels.append((trees, colors))
        counts.append(count)
        prev_trees = trees


# ----------------------------------------------------------------------
# Graphs: node order and derivation
# ----------------------------------------------------------------------


def reference_sorted_nodes(items, key=None):
    """``items`` in node order, one ``_SortKey`` per item."""
    if key is None:
        return sorted(items, key=_SortKey)
    return sorted(items, key=lambda item: _SortKey(key(item)))


def reference_edges(graph):
    """``graph.edges()`` as it sorted every pair by ``_SortKey``s."""
    pairs = [tuple(sorted(edge, key=_SortKey)) for edge in graph._edges]
    return sorted(pairs, key=lambda p: (_SortKey(p[0]), _SortKey(p[1])))


def reference_derive(graph, layers=None, ports=None):
    """``graph`` with ``layers`` and ``ports`` (by default its own),
    built from scratch: the constructor re-sorts and re-validates the
    topology from its edge list."""
    if layers is None:
        layers = {name: graph.layer(name) for name in graph.layer_names}
    if ports is None:
        ports = {v: graph.ports(v) for v in graph.nodes}
    return LabeledGraph(
        edges=list(graph.edges()),
        nodes=graph.nodes,
        layers=layers,
        ports=ports,
        check_connected=False,
    )


def csr_tables(graph):
    """Every array and rank table of ``graph``'s CSR mirror, as plain
    values that compare by ``==``."""
    csr = graph._csr_mirror()
    return (
        csr.nodes,
        dict(csr.index),
        list(csr.offsets),
        list(csr.targets),
        csr.adjacency,
        list(csr.label_ranks),
        csr.label_values,
        csr.num_labels,
        {name: list(ranks) for name, ranks in csr.layer_ranks.items()},
        csr.layer_values,
    )


# ----------------------------------------------------------------------
# The round kernel and the assignment searches
# ----------------------------------------------------------------------


def reference_freeze(value):
    """The recursive definition ``_freeze`` had before its atom fast path."""
    if isinstance(value, (list, tuple)):
        return tuple(reference_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, reference_freeze(v)) for k, v in value.items()))
    if isinstance(value, set):
        return tuple(sorted(reference_freeze(v) for v in value))
    return value


def reference_random_bits(rng, count):
    """``count`` bits as ``RandomTape.draw`` built them before the fast
    path: one ``str(getrandbits(1))`` per bit."""
    return "".join(str(rng.getrandbits(1)) for _ in range(count))


def reference_search(algorithm, graph, order, max_length=64, budget=1_000_000):
    """Every trial replayed from round 0, in the paper's order, with the
    search's budget messages."""
    empty = {v: "" for v in order}
    tried = 0
    for length in range(1, max_length + 1):
        for assignment in enumerate_extensions(empty, order, length):
            if tried >= budget:
                raise SearchBudgetExceeded(
                    f"assignment search exceeded its budget of {budget} trials "
                    f"at length {length}"
                )
            tried += 1
            if execute(algorithm, graph, assignment=assignment).successful:
                return assignment
        if tried >= budget:
            raise SearchBudgetExceeded(
                f"assignment search exceeded its budget of {budget} trials "
                f"after length {length}"
            )
    raise DerandomizationError(f"no successful assignment up to length {max_length}")


def reference_prg_search(algorithm, graph, order, max_length=64, budget=1_000_000):
    """The prg search with every trial replayed through ``execute``."""
    empty = {v: "" for v in order}
    tried = 0
    length = 4
    while length <= max_length:
        for assignment in enumerate_extensions(
            empty, order, length, strategy="prg", prg_seed=length, limit=TRIALS_PER_LENGTH
        ):
            if tried >= budget:
                raise SearchBudgetExceeded(
                    f"prg assignment search exceeded its budget of {budget} trials"
                )
            tried += 1
            if execute(algorithm, graph, assignment=assignment).successful:
                return assignment
        length *= 2
    raise DerandomizationError(
        f"prg search found no successful assignment up to length {max_length}"
    )


def reference_extension(algorithm, graph, order, prefix, target_length, budget=1_000_000):
    """``smallest_successful_extension`` with every trial replayed
    through ``execute``."""
    tried = 0
    for assignment in enumerate_extensions(prefix, order, target_length):
        if tried >= budget:
            raise SearchBudgetExceeded(
                f"no successful extension of length {target_length} within "
                f"{budget} trials (space not exhausted)"
            )
        tried += 1
        if execute(algorithm, graph, assignment=assignment).successful:
            return assignment
    return None


class _PerTrialPrefixMemo(_PrefixMemo):
    """The lexicographic search as it played each trial: ``_continue``
    reads a trial's ``n`` option slots, sums their decided bits and keeps
    its end state as the next length's snapshot, trial by trial.
    ``_rows`` holds those per-trial snapshots."""

    def _continue(self, target_length, trials):
        graph = self._graph
        n = graph.num_nodes
        per_round = self._algorithm.bits_per_round
        rounds = target_length // per_round
        new_round = rounds > self._rounds
        kept = self._rounds * per_round
        free = target_length - kept
        keyed = _per_trial_keys(
            trials, [(n - 1 - j) * target_length + free for j in range(n)], kept
        )
        decided_mask = (1 << self._width) - 1
        executions = extended = nodes_decided = index = 0
        start = _wall_clock()
        try:
            if not self._rows:
                self._rows = [self._encode(self._memo.initial_ids())]
            snapshots = self._rows
            if not new_round:
                for index, key in keyed:
                    decided = sum(snapshots[key]) & decided_mask
                    executions += 1
                    nodes_decided += decided
                    if decided == n:
                        return index, range(0)
                return None, range(0)
            chunk_mask = (1 << free) - 1
            reads = [
                (p << free, (n - 1 - j) * target_length) for p, j in enumerate(self._positions)
            ]
            rows = [None] * len(snapshots)
            settled = {}
            fresh = []
            for index, key in keyed:
                slots = rows[key]
                if slots is None:
                    snapshot = snapshots[key]
                    if sum(snapshot) & decided_mask == n:
                        executions += 1
                        nodes_decided += n
                        return index, range(0)
                    settled[key] = self._settle(snapshot)
                    slots = rows[key] = [None] * (n << free)
                codes = [slots[base + ((index >> shift) & chunk_mask)] for base, shift in reads]
                if None in codes:
                    codes = self._fill_trial(
                        slots, settled[key], index, reads, chunk_mask, free, rounds
                    )
                decided = sum(codes) & decided_mask
                fresh.append(tuple(codes))
                executions += 1
                extended += 1
                nodes_decided += decided
                if decided == n:
                    return index, range(0)
        except _NotInternable:
            self._rows = None
            return None, range(index, trials)
        finally:
            _absorb_all(
                executions, extended, extended * 2 * graph.num_edges,
                extended * per_round * n, nodes_decided, _wall_clock() - start,
            )
        self._rows, self._rounds = fresh, rounds
        return None, range(0)

    def _fill_trial(self, slots, settled, index, reads, chunk_mask, free, rounds):
        memo, width = self._memo, self._width
        sids, befores, inboxes = settled
        filled = []
        for p, (base, shift) in enumerate(reads):
            chunk = (index >> shift) & chunk_mask
            if slots[base + chunk] is None:
                target = memo.target(sids[p], format(chunk, f"0{free}b"), inboxes[p])
                filled.append((p, base + chunk, target))
        for p, slot, target in filled:
            value, before = memo.output(target), befores[p]
            if before is not None and (value is None or value != before):
                raise _output_changed(self._graph.nodes[p], before, value, rounds)
            slots[slot] = target << width | (value is not None)
        return [slots[base + ((index >> shift) & chunk_mask)] for base, shift in reads]


def _per_trial_keys(trials, shifts, kept):
    """Each trial index with the lexicographic index of its per-node
    first ``kept`` bits."""
    mask = (1 << kept) - 1
    for index in range(trials):
        key = 0
        for shift in shifts:
            key = (key << kept) | ((index >> shift) & mask)
        yield index, key


def per_trial_search(algorithm, graph, order):
    """``smallest_successful_assignment``'s lexicographic loop, one trial
    of each snapshot at a time."""
    search_length = _PerTrialPrefixMemo(algorithm, graph, order).search_length
    budget = 1_000_000
    for target_length in range(1, 65):
        found = search_length(target_length, budget)
        if found is not None:
            return found
        budget -= 1 << (graph.num_nodes * target_length)
    raise DerandomizationError("per-trial search found no assignment")


# ----------------------------------------------------------------------
# Factors and candidates
# ----------------------------------------------------------------------


def reference_all_factors(graph):
    """``all_factors(graph, include_trivial=True)`` as enumerated before
    the 2-hop pruning: every equal-size partition inside the view
    classes, the ones that need a loop or are not locally injective
    rejected afterwards."""
    csr, colors = refinement_indices(graph)
    classes = dict(zip(csr.nodes, colors))
    results = [FactorizingMap(graph, graph, {v: v for v in graph.nodes})]
    for fiber_size in _divisors(graph.num_nodes)[1:]:
        partitions, blocks = [], []

        def backtrack(remaining, fiber_size=fiber_size, partitions=partitions, blocks=blocks):
            if not remaining:
                if all(len(block) == fiber_size for block in blocks):
                    partitions.append([tuple(block) for block in blocks])
                return
            if len(remaining) < sum(fiber_size - len(block) for block in blocks):
                return
            first, rest = remaining[0], remaining[1:]
            for block in blocks:
                if len(block) < fiber_size and classes[block[0]] == classes[first]:
                    block.append(first)
                    backtrack(rest)
                    block.pop()
            blocks.append([first])
            backtrack(rest)
            blocks.pop()

        backtrack(list(graph.nodes))
        for partition in partitions:
            factor_map = _reference_partition_to_factor(graph, partition)
            if factor_map is not None:
                results.append(factor_map)
    return results


def _reference_partition_to_factor(graph, partition):
    block_of = {v: index for index, block in enumerate(partition) for v in block}
    edges = set()
    for v in graph.nodes:
        neighbor_blocks = [block_of[u] for u in graph.neighbors(v)]
        if block_of[v] in neighbor_blocks:
            return None  # would need a loop
        if len(set(neighbor_blocks)) != len(neighbor_blocks):
            return None  # projection not locally injective
        edges.update(frozenset((block_of[v], d)) for d in neighbor_blocks)
    layers = {
        name: {index: graph.label_of(block[0], name) for index, block in enumerate(partition)}
        for name in graph.layer_names
    }
    try:
        quotient = LabeledGraph(
            sorted(tuple(sorted(e)) for e in edges), nodes=range(len(partition)), layers=layers
        )
        return FactorizingMap(graph, quotient, block_of)
    except (GraphError, FactorError):
        return None


def reference_enumerate_candidates(view_tree, phase, problem_c, layer_names, max_nodes=4):
    """``enumerate_candidates`` as it was before the folding search: every
    connected edge set on ``k <= min(phase, max_nodes)`` nodes times
    every labeling by observed marks, each checked against C1-C3."""
    marks = observed_marks(view_tree)
    by_encoding = {}
    for k in range(1, min(phase, max_nodes) + 1):
        for edges in connected_edge_sets(k):
            for labeling in itertools.product(marks, repeat=k):
                candidate = _reference_try_candidate(
                    edges, k, labeling, view_tree, phase, problem_c, layer_names
                )
                if candidate is not None and candidate.sort_key not in by_encoding:
                    by_encoding[candidate.sort_key] = candidate
    return [by_encoding[key] for key in sorted(by_encoding)]


def connected_edge_sets(k):
    """Every edge set on nodes ``0 .. k-1`` that connects them."""
    pairs = list(itertools.combinations(range(k), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        reached, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in reached:
                        reached.add(y)
                        frontier.append(y)
        if len(reached) == k:
            yield edges


def _reference_try_candidate(edges, k, labeling, view_tree, phase, problem_c, layer_names):
    degree = [0] * k
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if not any(
        labeling[v] == view_tree.mark and degree[v] == len(view_tree.children)
        for v in range(k)
    ):
        return None
    layers = {name: {} for name in layer_names}
    for v, mark in enumerate(labeling):
        if not isinstance(mark, tuple) or len(mark) != len(layer_names):
            return None
        for name, value in zip(layer_names, mark):
            layers[name][v] = value
    try:
        graph = LabeledGraph(edges, nodes=range(k), layers=layers)
    except GraphError:
        return None
    views = all_views(graph, phase)
    anchors = [v for v in graph.nodes if views[v] is view_tree]
    if not anchors:
        return None
    if not problem_c.is_instance(graph.with_only_layers(list(layer_names[:-1]))):
        return None
    try:
        quotient = finite_view_graph(graph)
    except FactorError:
        return None
    return Candidate(
        graph=graph,
        finite_view=quotient.graph,
        anchor=anchors[0],
        anchor_class=quotient.map(anchors[0]),
        sort_key=finite_view_graph_sort_key(quotient.graph),
    )
