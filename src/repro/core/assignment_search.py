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
from heapq import heappop, heappush
from collections.abc import Iterator, Mapping, Sequence

from repro.exceptions import DerandomizationError
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.engine import (
    TrialMemo,
    _UNSET,
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
) -> Assignment | None:
    """The first successful ``target_length``-extension of ``prefix`` in
    lexicographic order, or ``None`` when no extension of this length
    succeeds.  Raises :class:`SearchBudgetExceeded` when the
    budget runs out with candidates still untried."""
    _check_node_order(graph, node_order)
    memo = TrialMemo(algorithm, graph)
    tried = 0
    exhausted = True
    for assignment in enumerate_extensions(prefix, node_order, target_length):
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
    continues one failed trial by exactly that round.  The trials of a
    length group into *snapshots*, one per filling of the nodes' first
    ``_rounds·b`` bits: the states those bits reach, which each of the
    snapshot's trials continues with its own chunk of fresh bits per
    node.  A node's state in a snapshot is a code: its state id shifted
    left by ``_width`` bits, plus 1 if that state has decided, so that
    the low ``_width`` bits of a sum of codes count decided nodes.  The
    ids belong to the search's one
    :class:`~repro.runtime.engine.TrialMemo`, which only its own trials
    (:meth:`~repro.runtime.engine.TrialMemo.run`) clear, so every
    continuation of every length looks each node's transition up in one
    table.  A length that funds no new round continues the same
    snapshots with no round to run.

    A snapshot fixes every node's state and inbox, so in a new round a
    node's next state depends only on its own chunk: the round from a
    snapshot keeps one option slot per (node, chunk value), each holding
    the code of the state it leads to, and these slots decide every
    trial of the snapshot.  Its first successful trial takes each node's
    smallest decided chunk, and its trials hold ``2^(f(n-1))`` times as
    many decided nodes as its slots hold (``f`` fresh bits per node).
    So a length plays snapshots, not trials.  A snapshot's first trial
    settles it: it fills each node's chunk-0 slot, and each other slot
    whose transition the table holds with its target's output computed
    and agreeing with the node's decided one, a fill that calls and
    changes nothing whenever it happens.  One heap replays, in trial
    order, the first trial that reads each other slot (a miss, an
    output not computed yet, or one that changes), up to the first
    trial known to succeed, an error or the budget; a node's smallest
    decided chunk is known once no unfilled slot lies below it.  The
    trials below that stop are counted per snapshot.  ``_rows`` holds
    the slot rows of the last length that funded a round, one per
    snapshot in trial order; the snapshots of the lengths after it are
    its trials, each one slot per node of its parent's row.

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
        # Empty until the first trial interns the initial states (one row
        # of one slot per node); ``None`` once the trials replay
        # (``execute`` raises a deterministic algorithm's error and
        # applies the ambient contexts).
        plays = algorithm.bits_per_round and not ambient_context_active()
        self._rows: list[Sequence[int]] | None = [] if plays else None
        self._chunk = 0  # bits per node that pick a slot of a row
        self._decided = 0  # decided nodes of all snapshots together

    def search_length(self, target_length: int, budget: int) -> Assignment | None:
        """:func:`smallest_successful_extension` of the empty prefix to
        ``target_length``: the same trials in the same order, each
        counted as one execution.  Lengths must come as ``1, 2, 3, ...``,
        each after the previous one failed."""
        space = 1 << (len(self._order) * target_length)
        trials = min(space, budget)
        replayed = range(trials)
        if self._rows is not None and trials:
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
        memo cannot play on."""
        n = self._graph.num_nodes
        start = _wall_clock()
        if not self._rows:
            try:
                codes = self._encode(self._memo.initial_ids())
            except _NotInternable:
                self._rows = None
                return None, range(trials)
            self._rows, self._decided = [codes], sum(codes) & ((1 << self._width) - 1)
            if self._decided == n:  # no round runs, and trial 0 succeeds
                _absorb_all(1, 0, 0, 0, n, _wall_clock() - start)
                return 0, range(0)
        if target_length // self._algorithm.bits_per_round == self._rounds:
            self._continue_without_round(target_length, trials, start)
            return None, range(0)
        return self._continue_by_one_round(target_length, trials, start)

    def _continue_without_round(self, target_length: int, trials: int, start: float) -> None:
        """Count the first ``trials`` trials of a length that funds no
        new round: each holds its snapshot's decided nodes, and fails
        (a snapshot after round 0 is the end state of a failed trial)."""
        n = self._graph.num_nodes
        free = target_length - self._rounds * self._algorithm.bits_per_round
        if trials == 1 << (n * target_length):
            decided = self._decided << (n * free)
        else:
            walk = sorted(zip(self._shifts(target_length), range(n)), reverse=True)
            mask, zeros = (1 << self._width) - 1, [0] * (n << free)
            decided = 0
            for first, codes in self._snapshots(target_length):
                if first >= trials:
                    break
                below, _ = _trials_below(trials, first, walk, free, zeros)
                decided += (sum(codes) & mask) * below
        _absorb_all(trials, 0, 0, 0, decided, _wall_clock() - start)

    def _continue_by_one_round(
        self, target_length: int, trials: int, start: float
    ) -> tuple[int | None, range]:
        """:meth:`_continue` for a length that funds a new round.  A round
        runs every transition before it checks any output, and raises
        the kernel's error for an output that changes."""
        graph = self._graph
        n = graph.num_nodes
        per_round = self._algorithm.bits_per_round
        rounds = target_length // per_round
        free = target_length - self._rounds * per_round  # bits per node each trial adds
        size = 1 << free
        strings = [format(chunk, f"0{free}b") for chunk in range(size)]  # each chunk's bits
        zeros = [(p, 0) for p in range(n)]  # the slots a snapshot's first trial reads
        shifts = self._shifts(target_length)
        walk = sorted(zip(shifts, range(n)), reverse=True)
        snapshots = self._snapshots(target_length)
        beyond = (1 << (n * target_length), None)
        next_first, codes = next(snapshots)
        # Events ``(trial, snapshot, p, chunk)``: the first trial that
        # reads slot ``(p, chunk)`` of a snapshot ``[first trial, slot
        # row, settled states, unresolved nodes]``, for each slot its
        # settle left unfilled.
        heap: list[tuple[int, list, int, int]] = []
        touched: list[tuple[int, list]] = []  # (first trial, slot row), in trial order
        found = stop = None
        limit = trials  # no trial from ``limit`` on is played
        index = 0
        try:
            while True:
                if heap and heap[0][0] < next_first:
                    index, snapshot, p, chunk = heap[0]
                    if index >= limit:
                        break
                    heappop(heap)
                    first, row, settled, _unresolved = snapshot
                    self._fill(row, settled, [(p, chunk)], strings, rounds)
                    # The node's events come in chunk order, so every slot
                    # below this one is filled.
                    base = p << free
                    if any(code & 1 for code in row[base : base | chunk]) or not _resolved(
                        row, base | chunk, base + size
                    ):
                        continue
                    snapshot[3] -= 1
                else:
                    index = first = next_first
                    if index >= limit:
                        break
                    settled = self._settle(codes)
                    row = [None] * (n << free)
                    self._fill(row, settled, zeros, strings, rounds)
                    deferred, unresolved = self._fill_hits(row, settled, strings)
                    touched.append((first, row))
                    snapshot = [first, row, settled, unresolved]
                    for p, chunk in deferred:
                        heappush(heap, (first + (chunk << shifts[p]), snapshot, p, chunk))
                    next_first, codes = next(snapshots, beyond)
                if not snapshot[3]:  # every node has its smallest decided slot
                    success = _first_success(first, row, shifts, free)
                    if success < limit:
                        found = limit = success
            stop = limit if found is None else found + 1
        except _NotInternable:
            stop = index
            self._rows = None
            return None, range(index, trials)
        finally:
            if stop is None:  # the algorithm's error at trial ``index``
                stop = index
            decided = _decided_below(stop, touched, walk, free)
            _absorb_all(
                stop, stop, stop * 2 * graph.num_edges, stop * per_round * n, decided,
                _wall_clock() - start,
            )
        self._rows, self._chunk, self._rounds = [row for _first, row in touched], free, rounds
        self._decided = decided
        return found, range(0)

    def _shifts(self, target_length: int) -> list[int]:
        """Where each node's chunk (in ``graph.nodes`` order) starts in a
        trial's index: node ``order[j]`` holds bits ``[j·t, (j+1)·t)`` of
        the index in binary (``t = target_length``), its chunk of fresh
        bits at the bottom."""
        n = len(self._order)
        return [(n - 1 - j) * target_length for j in self._positions]

    def _snapshots(self, target_length: int) -> Iterator[tuple[int, list[int]]]:
        """Each snapshot's first trial of ``target_length`` and codes, in
        trial order.  Snapshot ``k`` holds node ``order[j]``'s first
        ``kept`` bits as bits ``[j·kept, (j+1)·kept)`` of ``k``: its
        parent snapshot's bits on top and the chunk that picks the
        node's slot in the parent's row at the bottom."""
        n = len(self._order)
        kept = self._rounds * self._algorithm.bits_per_round
        chunk = self._chunk
        free = target_length - kept
        rows = self._rows
        kept_mask, chunk_mask = (1 << kept) - 1, (1 << chunk) - 1
        # Per node: where its bits sit in a snapshot's index, in its
        # parent's index and in the snapshot's first trial, and its slots.
        places = [
            ((n - 1 - j) * kept, (n - 1 - j) * (kept - chunk), (n - 1 - j) * target_length + free,
             p << chunk)
            for p, j in enumerate(self._positions)
        ]
        for key in range(1 << (n * kept)):
            parent = first = 0
            slots = []
            for key_shift, parent_shift, first_shift, base in places:
                digit = key >> key_shift & kept_mask
                parent |= digit >> chunk << parent_shift
                first |= digit << first_shift
                slots.append(base | digit & chunk_mask)
            row = rows[parent]
            yield first, [row[slot] for slot in slots]

    def _encode(self, sids: Sequence[int]) -> tuple[int, ...]:
        """The snapshot of states ``sids``."""
        width, output = self._width, self._memo.output
        return tuple([sid << width | (output(sid) is not None) for sid in sids])

    def _settle(self, codes: Sequence[int]) -> tuple[list[int], list, list[list[str]]]:
        """A snapshot's ``(state ids, outputs, inboxes)``."""
        memo = self._memo
        sids = [code >> self._width for code in codes]
        return sids, memo.outputs(sids), memo.inbox_keys(sids)

    def _fill(
        self, row: list, settled: tuple, slots: list[tuple[int, int]], strings: list[str],
        rounds: int,
    ) -> None:
        """Fill ``row``'s slots ``(p, chunk)``: every transition first,
        then each new output against the node's decided one, in position
        order as the kernel checks.  ``strings[chunk]`` is a chunk's bits."""
        memo, width, size = self._memo, self._width, len(strings)
        transitions, output_of = memo._transitions, memo._output_of
        sids, befores, inboxes = settled
        targets = []
        for p, chunk in slots:
            key = (sids[p], strings[chunk], *inboxes[p])
            target = transitions.get(key)
            targets.append(target if target is not None else memo._transition(key))
        for (p, chunk), target in zip(slots, targets):
            value, before = output_of[target], befores[p]
            if value is _UNSET:
                value = memo._output(target)
            if before is not None and (value is None or value != before):
                raise _output_changed(self._graph.nodes[p], before, value, rounds)
            row[p * size + chunk] = target << width | (value is not None)

    def _fill_hits(
        self, row: list, settled: tuple, strings: list[str]
    ) -> tuple[list[tuple[int, int]], int]:
        """Fill each slot ``(p, chunk ≥ 1)`` of a settled snapshot whose
        transition is in the table, its target's output computed and
        agreeing with the node's decided one: filling it then calls and
        changes nothing.  Returns the other slots, in position order,
        and how many nodes are not :func:`_resolved` after the fill."""
        width, size = self._width, len(strings)
        transitions, output_of = self._memo._transitions, self._memo._output_of
        deferred = []
        unresolved = 0
        for p, (sid, before, inbox) in enumerate(zip(*settled)):
            base = p * size
            resolved = row[base] & 1
            unfilled = False  # a slot below ``chunk`` is left unfilled
            for chunk in range(1, size):
                target = transitions.get((sid, strings[chunk], *inbox))
                value = _UNSET if target is None else output_of[target]
                if value is _UNSET or before is not None and (value is None or value != before):
                    deferred.append((p, chunk))
                    unfilled = True
                else:
                    row[base + chunk] = target << width | (value is not None)
                    resolved = resolved or (value is not None and not unfilled)
            unresolved += not resolved
        return deferred, unresolved

    def _assignment(self, index: int, target_length: int) -> Assignment:
        """The trial of ``target_length`` with lexicographic index ``index``."""
        bits = format(index, f"0{len(self._order) * target_length}b")
        return {
            v: bits[j * target_length : (j + 1) * target_length]
            for j, v in enumerate(self._order)
        }


def _decided_below(
    stop: int, touched: list[tuple[int, list]], walk: list[tuple[int, int]], free: int
) -> int:
    """The decided nodes of the trials below ``stop`` of the snapshots
    ``touched``, each a ``(first trial, slot row)`` as in
    :func:`_trials_below`."""
    span = sum(((1 << free) - 1) << shift for shift, _p in walk)  # every chunk bit
    whole = free * (len(walk) - 1)
    decided = 0
    for first, row in touched:
        if first | span < stop:  # every trial of the snapshot
            decided += sum([code & 1 for code in row]) << whole
        else:
            decided += _trials_below(stop, first, walk, free, row)[1]
    return decided


def _resolved(row: Sequence[int | None], start: int, stop: int) -> bool:
    """Whether a node's smallest decided chunk is known: the first of
    its slots ``row[start:stop]`` that is decided or unfilled (``None``)
    is decided."""
    for code in row[start:stop]:
        if code is None:
            return False
        if code & 1:
            return True
    return False


def _first_success(first: int, row: Sequence[int], shifts: list[int], free: int) -> int:
    """The first trial ``first + Σ c_p << shifts[p]`` of a snapshot in
    which every node ``p`` decided: each node's smallest chunk ``c``
    whose slot ``row[p·2^free + c]`` holds a decided code."""
    size = 1 << free
    for p, shift in enumerate(shifts):
        base = p << free
        chunk = next(c for c in range(size) if row[base | c] & 1)
        first += chunk << shift
    return first


def _trials_below(
    stop: int, first: int, walk: list[tuple[int, int]], free: int, row: Sequence[int | None]
) -> tuple[int, int]:
    """How many of one snapshot's trials lie below trial ``stop``, and
    how many decided nodes they hold together.

    The snapshot's trials are ``first + Σ c_p << shift_p`` over the
    chunks ``c_p < 2^free``; ``walk`` lists its ``(shift_p, p)`` from the
    most significant chunk down to one at bit 0, and ``row[p·2^free +
    c]`` is node ``p``'s code after chunk ``c`` (bit 0 set if it
    decided), or ``None`` where no trial below ``stop`` reads it.  Counted digit by
    digit: a trial lies below ``stop`` when it agrees with ``stop`` above
    some node's chunk and that chunk is smaller, the chunks after it
    being free."""
    size = 1 << free
    bits = [[(row[p << free | c] or 0) & 1 for c in range(size)] for _shift, p in walk]
    rest = sum(map(sum, bits))  # decided slots of the nodes not walked yet
    trials = decided = fixed = 0  # ``fixed``: decided nodes among the chunks walked
    trial = first
    for i, ((shift, _p), node) in enumerate(zip(walk, bits)):
        after = len(walk) - 1 - i  # nodes after this one
        rest -= sum(node)
        top = shift + free
        if trial >> top != stop >> top:
            if trial >> top < stop >> top:  # every trial left lies below
                trials += size << (free * after)
                decided += (fixed * size + sum(node) + rest) << (free * after)
            break
        chunk = stop >> shift & (size - 1)
        # The trials with a smaller chunk here: ``2^(free·after)`` each,
        # in which each node after this one holds each chunk equally often.
        block = 1 << (free * after)
        trials += chunk * block
        decided += (fixed * chunk + sum(node[:chunk])) * block + (chunk * rest * block >> free)
        fixed += node[chunk]
        trial |= chunk << shift
    return trials, decided


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
