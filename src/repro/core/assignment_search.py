"""Searching for successful simulations in the assignment order.

``A_∞`` needs the globally smallest successful assignment (Section 2.2);
``A_*``'s Update-Bits needs the smallest successful *p-extension* of a
prefix assignment (Section 3.1).  Both reduce to enumerating, for a
fixed target length, all fillings of the free suffix bits in
lexicographic order of the node-ordered tuple — which is a plain binary
counter over the free bits with the first node's bits most significant.

The search is exponential in ``(#nodes × target length)`` — that is the
honest cost of the paper's construction, and one of the things our
benchmarks measure.  A budget guard raises
:class:`SearchBudgetExceeded` rather than hanging.  An alternative
``"prg"`` strategy enumerates candidate fillings in a *deterministic
pseudorandom* order instead: every node still computes the same
predetermined order (all Lemma 1 needs), but the expected number of
trials drops from exponential to ``O(1 / p_success)`` — our ablation
experiment quantifies the difference.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping, Sequence

from repro.exceptions import DerandomizationError
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import (
    TrialMemo,
    _absorb_all,
    _NotInternable,
    _output_changed,
    _wall_clock,
    ambient_context_active,
    execute,
)

Assignment = dict[Node, str]

# A prg search tries this many assignments of each length.
TRIALS_PER_LENGTH = 128


class SearchBudgetExceeded(DerandomizationError):
    """The assignment search hit its trial budget before finding success."""


def enumerate_extensions(
    prefix: Mapping[Node, str],
    node_order: Sequence[Node],
    target_length: int,
    strategy: str = "lexicographic",
    prg_seed: int = 0,
    limit: int | None = None,
) -> Iterator[Assignment]:
    """Yield the ``target_length``-extensions of ``prefix`` in a
    predetermined total order.

    ``"lexicographic"`` yields them in the paper's assignment order
    (smallest first).  ``"prg"`` yields them in a fixed pseudorandom
    order (deduplicated), still deterministic for given inputs.
    ``limit`` caps the number of yielded assignments.
    """
    free_counts = []
    for v in node_order:
        current = prefix.get(v, "")
        if len(current) > target_length:
            raise DerandomizationError(
                f"prefix of node {v!r} has length {len(current)} > target "
                f"{target_length}; not extendable"
            )
        free_counts.append(target_length - len(current))
    total_free = sum(free_counts)

    def build(filling: str) -> Assignment:
        assignment: Assignment = {}
        position = 0
        for v, count in zip(node_order, free_counts):
            assignment[v] = prefix.get(v, "") + filling[position : position + count]
            position += count
        return assignment

    space = 1 << total_free
    if strategy == "lexicographic":
        indices: Iterator[int] = iter(range(space))
    elif strategy == "prg":
        indices = _prg_indices(space, prg_seed)
    else:
        raise DerandomizationError(f"unknown search strategy {strategy!r}")

    yielded = 0
    for index in indices:
        if limit is not None and yielded >= limit:
            return
        filling = format(index, f"0{total_free}b") if total_free else ""
        yield build(filling)
        yielded += 1


def _prg_indices(space: int, seed: int) -> Iterator[int]:
    """A deterministic pseudorandom enumeration of ``range(space)`` without
    replacement (rejection sampling backed by a seen-set; for very large
    spaces callers bound the draw count via their budget)."""
    rng = random.Random(seed)
    seen: set = set()
    while len(seen) < space:
        index = rng.randrange(space)
        if index in seen:
            continue
        seen.add(index)
        yield index


def smallest_successful_extension(
    algorithm: AnonymousAlgorithm,
    graph: LabeledGraph,
    node_order: Sequence[Node],
    prefix: Mapping[Node, str],
    target_length: int,
    budget: int = 1_000_000,
    strategy: str = "lexicographic",
) -> Assignment | None:
    """The first successful ``target_length``-extension of ``prefix`` in the
    chosen predetermined order, or ``None`` when no extension of this
    length succeeds.  Raises :class:`SearchBudgetExceeded` when the
    budget runs out with candidates still untried."""
    _check_node_order(graph, node_order)
    memo = TrialMemo(algorithm, graph)
    tried = 0
    exhausted = True
    for assignment in enumerate_extensions(
        prefix, node_order, target_length, strategy=strategy
    ):
        if tried >= budget:
            exhausted = False
            break
        tried += 1
        if memo.run(assignment):
            return assignment
    if not exhausted:
        raise SearchBudgetExceeded(
            f"no successful extension of length {target_length} within "
            f"{budget} trials (space not exhausted)"
        )
    return None


def smallest_successful_assignment(
    algorithm: AnonymousAlgorithm,
    graph: LabeledGraph,
    node_order: Sequence[Node],
    max_length: int = 64,
    budget: int = 1_000_000,
    strategy: str = "lexicographic",
) -> Assignment:
    """The first successful assignment in the strategy's predetermined
    order.

    ``"lexicographic"`` is the paper's total order: lengths
    ``t = 1, 2, ...`` in turn, lexicographic within a length — the result
    is the globally smallest successful assignment.  ``"prg"`` trades
    minimality for tractability while keeping determinism: lengths double
    (``4, 8, 16, ...``) and within each length a bounded number of
    pseudorandomly-ordered assignments is tried; at an adequate length a
    random assignment succeeds with high probability, so the expected
    trial count is small.  Any such predetermined rule satisfies Lemma 1.

    The budget is shared across lengths.  Raises
    :class:`SearchBudgetExceeded` if it runs out, and
    :class:`DerandomizationError` if ``max_length`` is exhausted (which,
    for a Las-Vegas algorithm, means the cap was simply too small)."""
    _check_node_order(graph, node_order)
    if strategy == "prg":
        return _prg_assignment_search(
            algorithm, graph, node_order, max_length=max_length, budget=budget
        )
    if strategy != "lexicographic":
        raise DerandomizationError(f"unknown search strategy {strategy!r}")
    search_length = _PrefixMemo(algorithm, graph, node_order).search_length
    remaining = budget
    for target_length in range(1, max_length + 1):
        try:
            found = search_length(target_length, remaining)
        except SearchBudgetExceeded:
            raise SearchBudgetExceeded(
                f"assignment search exceeded its budget of {budget} trials "
                f"at length {target_length}"
            ) from None
        space = 1 << (graph.num_nodes * target_length)
        remaining -= min(space, remaining)
        if found is not None:
            return found
        if remaining <= 0:
            raise SearchBudgetExceeded(
                f"assignment search exceeded its budget of {budget} trials "
                f"after length {target_length}"
            )
    raise DerandomizationError(
        f"no successful assignment up to length {max_length}; "
        "raise max_length (Las-Vegas success has probability 1, so some "
        "finite length works)"
    )


def _check_node_order(graph: LabeledGraph, node_order: Sequence[Node]) -> None:
    """Reject a search order that is not a permutation of the nodes."""
    order = list(node_order)
    if len(order) != graph.num_nodes or set(order) != set(graph.nodes):
        raise DerandomizationError(
            f"node_order {order!r} is not a permutation of the graph's nodes"
        )


class _PrefixMemo:
    """The lexicographic search of one length at a time, each trial
    continuing the end state of its failed prefix trial by one round.

    Round ``r`` of a trial reads only bits ``[(r-1)·b, r·b)`` of each
    node (``b = bits_per_round``), and every trial of a failed length
    failed, so each trial of the next length that funds a new round
    continues one failed trial by exactly that round.  ``_snapshots[k]``
    is the state reached after ``_rounds`` rounds by the trial whose
    per-node first ``_rounds·b`` bits have lexicographic index ``k``, as
    a tuple of codes in ``graph.nodes`` order: a node's state id shifted
    left by ``_width`` bits, plus 1 if that state has decided, so that
    the low ``_width`` bits of a snapshot's sum count its decided nodes.
    The ids belong to the search's one
    :class:`~repro.runtime.engine.TrialMemo`, which only its own trials
    (:meth:`~repro.runtime.engine.TrialMemo.run`) clear, so every
    continuation of every length looks each node's transition up in one
    table.  A length that funds no new round continues the same
    snapshots with no round to run.

    A snapshot fixes every node's state and inbox, so in a new round a
    node's next state depends only on its own chunk of fresh bits: the
    round from a snapshot keeps one option slot per (node, chunk value),
    each holding the code of the state it leads to.  A slot is filled
    the first time a trial needs it; a trial then reads its ``n`` slots.

    Trials the memo cannot play replay from round 0 through
    :func:`execute`: all of them for a port-numbered or deterministic
    algorithm or while an ambient context is active when the search
    starts, and every trial from the first whose state or message
    cannot be interned on.
    """

    def __init__(
        self, algorithm: AnonymousAlgorithm, graph: LabeledGraph, node_order: Sequence[Node]
    ) -> None:
        self._algorithm = algorithm
        self._graph = graph
        self._order = list(node_order)
        position = {v: j for j, v in enumerate(self._order)}
        self._positions = [position[v] for v in graph.nodes]
        self._width = graph.num_nodes.bit_length()  # a decided count fits below
        self._memo = TrialMemo(algorithm, graph)
        self._rounds = 0
        # Empty until the first trial interns the initial states; ``None``
        # once the trials replay (``execute`` raises a deterministic
        # algorithm's error and applies the ambient contexts).
        plays = algorithm.bits_per_round and not ambient_context_active()
        self._snapshots: list[tuple[int, ...]] | None = [] if plays else None

    def search_length(self, target_length: int, budget: int) -> Assignment | None:
        """:func:`smallest_successful_extension` of the empty prefix to
        ``target_length``: the same trials in the same order, each
        counted as one execution.  Lengths must come as ``1, 2, 3, ...``,
        each after the previous one failed."""
        space = 1 << (len(self._order) * target_length)
        trials = min(space, budget)
        replayed = range(trials)
        if self._snapshots is not None and trials:
            found, replayed = self._continue(target_length, trials)
            if found is not None:
                return self._assignment(found, target_length)
        for index in replayed:
            assignment = self._assignment(index, target_length)
            if execute(self._algorithm, self._graph, assignment=assignment).successful:
                return assignment
        if budget < space:
            raise SearchBudgetExceeded(
                f"no successful extension of length {target_length} within "
                f"{budget} trials (space not exhausted)"
            )
        return None

    def _continue(self, target_length: int, trials: int) -> tuple[int | None, range]:
        """Play the first ``trials`` trials of ``target_length`` as
        continuations of the snapshots, each handed to every active
        collector as one execution of the round it ran (or none).
        Returns the successful trial's index (or ``None``) and the
        trials left to replay: none, or every one from the first the
        memo cannot play on.  A round runs every transition before it
        checks any output, and raises the kernel's error for an output
        that changes."""
        graph = self._graph
        n = graph.num_nodes
        per_round = self._algorithm.bits_per_round
        rounds = target_length // per_round
        new_round = rounds > self._rounds
        kept = self._rounds * per_round  # bits per node behind the snapshots
        free = target_length - kept  # bits per node each trial adds
        # Node ``order[j]`` holds bits [j·t, (j+1)·t) of a trial's index in
        # binary (``t = target_length``), its first ``kept`` bits on top
        # and its chunk of ``free`` fresh bits at the bottom.
        keyed = _prefix_keys(trials, [(n - 1 - j) * target_length + free for j in range(n)], kept)
        decided_mask = (1 << self._width) - 1
        executions = extended = nodes_decided = index = 0
        start = _wall_clock()
        try:
            if not self._snapshots:
                self._snapshots = [self._encode(self._memo.initial_ids())]
            snapshots = self._snapshots
            if not new_round:
                for index, key in keyed:
                    decided = sum(snapshots[key]) & decided_mask
                    executions += 1
                    nodes_decided += decided
                    if decided == n:
                        return index, range(0)
                return None, range(0)
            # Node at position ``p`` reads slot ``p·2^free + chunk``.
            chunk_mask = (1 << free) - 1
            reads = [(p << free, (n - 1 - j) * target_length) for p, j in enumerate(self._positions)]
            rows: list[list[int | None] | None] = [None] * len(snapshots)
            settled: dict[int, tuple] = {}  # the snapshots trials have reached
            fresh: list[tuple[int, ...]] = []
            for index, key in keyed:
                slots = rows[key]
                if slots is None:
                    snapshot = snapshots[key]
                    if sum(snapshot) & decided_mask == n:  # no round runs, and it succeeds
                        executions += 1
                        nodes_decided += n
                        return index, range(0)
                    settled[key] = self._settle(snapshot)
                    slots = rows[key] = [None] * (n << free)
                codes = [slots[base + ((index >> shift) & chunk_mask)] for base, shift in reads]
                if None in codes:
                    codes = self._fill(slots, settled[key], index, reads, chunk_mask, free, rounds)
                decided = sum(codes) & decided_mask
                fresh.append(tuple(codes))
                executions += 1
                extended += 1
                nodes_decided += decided
                if decided == n:
                    return index, range(0)
        except _NotInternable:
            self._snapshots = None
            return None, range(index, trials)
        finally:
            _absorb_all(
                executions, extended, extended * 2 * graph.num_edges,
                extended * per_round * n, nodes_decided, _wall_clock() - start,
            )
        self._snapshots, self._rounds = fresh, rounds
        return None, range(0)

    def _encode(self, sids: Sequence[int]) -> tuple[int, ...]:
        """The snapshot of states ``sids``."""
        width, output = self._width, self._memo.output
        return tuple([sid << width | (output(sid) is not None) for sid in sids])

    def _settle(self, snapshot: tuple[int, ...]) -> tuple[list[int], list, list[list[str]]]:
        """A snapshot's ``(state ids, outputs, inboxes)``."""
        memo = self._memo
        sids = [code >> self._width for code in snapshot]
        return sids, memo.outputs(sids), memo.inbox_keys(sids)

    def _fill(
        self, slots: list, settled: tuple, index: int, reads: list[tuple[int, int]],
        chunk_mask: int, free: int, rounds: int,
    ) -> list[int]:
        """The codes trial ``index`` reads from ``slots``, filling the
        empty ones: every transition first, then each new output against
        the node's decided one, in position order as the kernel checks."""
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

    def _assignment(self, index: int, target_length: int) -> Assignment:
        """The trial of ``target_length`` with lexicographic index ``index``."""
        bits = format(index, f"0{len(self._order) * target_length}b")
        return {
            v: bits[j * target_length : (j + 1) * target_length]
            for j, v in enumerate(self._order)
        }


def _prefix_keys(trials: int, shifts: list[int], kept: int) -> Iterator[tuple[int, int]]:
    """Each trial index below ``trials`` with the lexicographic index of
    its per-node first ``kept`` bits, node ``j``'s being the ``kept`` bits
    above bit ``shifts[j]`` of the trial's index."""
    mask = (1 << kept) - 1
    for index in range(trials):
        key = 0
        for shift in shifts:
            key = (key << kept) | ((index >> shift) & mask)
        yield index, key


def _prg_assignment_search(
    algorithm: AnonymousAlgorithm,
    graph: LabeledGraph,
    node_order: Sequence[Node],
    max_length: int,
    budget: int,
) -> Assignment:
    empty: dict[Node, str] = {v: "" for v in node_order}
    memo = TrialMemo(algorithm, graph)
    tried = 0
    target_length = 4
    while target_length <= max_length:
        for assignment in enumerate_extensions(
            empty,
            node_order,
            target_length,
            strategy="prg",
            prg_seed=target_length,
            limit=TRIALS_PER_LENGTH,
        ):
            if tried >= budget:
                raise SearchBudgetExceeded(
                    f"prg assignment search exceeded its budget of {budget} trials"
                )
            tried += 1
            if memo.run(assignment):
                return assignment
        target_length *= 2
    raise DerandomizationError(
        f"prg search found no successful assignment up to length {max_length}; "
        "raise max_length"
    )
