"""Vectorized fast path for the allocation pipeline (Eq. 1–4, Alg. 1–2).

The reference implementation in :mod:`repro.core.candidate` and
:mod:`repro.core.selection` runs Algorithms 1 and 2 as pure-Python dict
arithmetic over O(V²) pair keys.  This module packs the same quantities
into NumPy arrays once per snapshot and replays both algorithms as array
operations:

* :class:`LoadState` — node-index table, Equation-1 ``CL`` vector, dense
  symmetric Equation-2 ``NL`` matrix (unmeasured pairs filled with the
  worst observed load, tracked by a mask), and the Equation-3 effective
  processor vector.  Built once per (snapshot, node subset, weights,
  normalization, ppn/load-key) and memoized on the snapshot itself via
  :func:`repro.monitor.snapshot.derived_cache`.
* :func:`generate_all_candidates_fast` — Algorithm 1 for *all* |V|
  starting nodes at once: one addition-cost matrix
  ``A = α·CL[None, :] + β·NL``, one stable per-row lexsort, one
  cumulative-sum cutoff of effective processor counts, and a closed-form
  round-robin remainder.
* :func:`best_candidate_fast` — Algorithm 2 / Equation 4 via a candidate
  membership matrix ``M``: compute costs ``C = M·CL`` and network costs
  ``N = ½·diag(M·NL·Mᵀ)``.

Exactness contract: the ``CL``/``NL``/``PC`` values come from the same
reference functions the dict path uses, and NumPy's element-wise
``α·CL + β·NL`` is bit-identical to the scalar expression, so the
per-row lexsort reproduces the reference candidate *exactly* (same
nodes, same process counts, same tie-breaks).  Equation-4 totals are
summed in a different order than the reference (pairwise vs. sequential
float addition), so when the top two candidates land within
``_TIE_RTOL`` the winner is re-derived with the reference
:func:`repro.core.selection.select_best` — guaranteeing the fast path
returns the identical allocation even under exact ties.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.attributes import ATTRIBUTES, Criterion
from repro.core.candidate import CandidateSubgraph
from repro.core.compute_load import compute_loads
from repro.core.effective_procs import effective_proc_count, effective_proc_counts
from repro.core.network_load import PairKey, combine_pair_costs, pair_inputs
from repro.core.selection import ScoredCandidate, select_best
from repro.core.weights import ComputeWeights, NetworkWeights, TradeOff
from repro.monitor.snapshot import ClusterSnapshot, derived_cache

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (delta → arrays)
    from repro.monitor.delta import SnapshotDelta

#: Relative gap between the best and second-best Equation-4 totals below
#: which the winner is recomputed with the reference implementation.
#: Array and dict totals agree to ~1e-13 relative, so any gap larger
#: than this guarantees both paths rank the winner identically.
_TIE_RTOL = 1e-9

#: node count above which :func:`best_candidate_fast` may switch to the
#: seed-pruned approximate path (when a threshold is passed in)
PRUNE_THRESHOLD_DEFAULT = 512
#: how many Algorithm-1 seeds the pruned path keeps
PRUNE_KEEP_DEFAULT = 32


@dataclass(frozen=True)
class StateParams:
    """Everything :func:`_build_state` was called with.

    Kept on the state so :meth:`LoadState.apply_delta` can re-derive the
    affected Equation-1/2/3 values without the caller re-supplying the
    build arguments (they are already part of the memo key).
    """

    compute_weights: ComputeWeights
    network_weights: NetworkWeights
    ppn: int | None
    load_key: str
    method: str


@dataclass(frozen=True)
class LoadState:
    """Array view of one snapshot's allocator inputs (Eq. 1–3).

    The dict fields (``cl``, ``nl``, ``pc``) are the *reference* values
    the arrays were packed from; they are kept so exact-equivalence
    fallbacks and the hierarchical policy can reuse them without
    recomputing.
    """

    #: node names in index order (the usable-node order)
    nodes: tuple[str, ...]
    #: name → row/column index
    index: Mapping[str, int]
    #: Equation-1 compute loads (reference dict)
    cl: Mapping[str, float]
    #: Equation-2 network loads over measured pairs (reference dict)
    nl: Mapping[PairKey, float]
    #: Equation-3 effective processor counts (reference dict)
    pc: Mapping[str, int]
    #: ``CL`` as a (V,) float vector
    cl_vec: np.ndarray
    #: dense symmetric (V, V) ``NL`` matrix — unmeasured pairs hold
    #: ``missing_penalty``, the diagonal is zero
    nl_mat: np.ndarray
    #: (V, V) bool mask, True where the pair was actually measured
    measured: np.ndarray
    #: worst observed pair load (0.0 when nothing was measured)
    missing_penalty: float
    #: effective processors as a (V,) int vector
    pc_vec: np.ndarray
    #: build parameters, kept for :meth:`apply_delta` (None on states
    #: constructed by hand without incremental support)
    params: StateParams | None = None
    #: raw measured latency per pair (Equation-2 input, pre-normalization)
    lat: Mapping[PairKey, float] | None = None
    #: raw bandwidth complement per pair (Equation-2 input)
    bwc: Mapping[PairKey, float] | None = None
    #: raw attribute matrix, (attributes, V) in ``ATTRIBUTES`` order —
    #: the pre-normalization Equation-1 inputs, kept so
    #: :meth:`apply_delta` patches changed columns and re-normalizes as
    #: array operations instead of re-extracting every view
    raw_mat: np.ndarray | None = None
    #: measured pairs in ``nl`` iteration order (the normalization order)
    pair_order: tuple[PairKey, ...] = ()
    #: row/column index arrays matching ``pair_order`` — one fancy-index
    #: assignment patches every measured ``nl_mat`` entry in O(E)
    pair_ii: np.ndarray | None = None
    pair_jj: np.ndarray | None = None
    #: bumped every time :meth:`apply_delta` actually changes this state;
    #: untouched states keep their generation (and identity)
    generation: int = 0
    #: per-state scratch memos (seed-pruning bounds); reset on delta
    scratch: dict = field(default_factory=dict, compare=False, repr=False)

    def _cl_from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Equation 1 over the raw matrix, bit-identical to the dicts.

        Mirrors ``to_cost`` + ``saw_scores`` operation for operation:
        the normalization denominator is a sequential Python sum in node
        order (exactly ``sum(values.values())``), divisions and the
        weighted accumulation are the same per-element IEEE operations
        in the same attribute order, so the result matches a
        ``compute_loads`` rebuild to the last bit.
        """
        assert self.params is not None
        v = raw.shape[1]
        weights = self.params.compute_weights.weights
        cl = np.zeros(v, dtype=np.float64)
        for i, attr in enumerate(ATTRIBUTES):
            w = float(weights.get(attr.name, 0.0))
            if w == 0.0:
                continue
            column = raw[i]
            total = sum(column.tolist())
            denom = total / v if self.params.method == "mean" else total
            norm = (
                column / denom
                if denom != 0
                else np.zeros(v, dtype=np.float64)
            )
            if attr.criterion is Criterion.MAXIMIZE:
                norm = float(norm.max()) - norm
            cl += w * norm
        return cl

    def apply_delta(
        self, snapshot: ClusterSnapshot, delta: "SnapshotDelta", *,
        inplace: bool = False,
    ) -> "LoadState":
        """Patch this state to reflect ``delta``, skipping ``_build_state``.

        ``snapshot`` is the *already patched* snapshot the returned state
        describes.  Equation 1/2 normalize over the whole ranked set, so a
        delta cannot touch single entries — instead the O(V²) pair scan is
        skipped and only the cheap parts re-run:

        * **CL** — the raw attribute matrix is patched for the changed
          nodes and re-normalized as array operations (O(changed) Python
          work plus vectorized O(attributes · V) arithmetic), bit-identical
          to a ``compute_loads`` rebuild.
        * **NL** — the stored raw latency/bandwidth-complement dicts are
          patched for the changed pairs and re-combined in the original
          key order (O(E), bit-identical); ``nl_mat``'s measured entries
          are overwritten through the precomputed index arrays, and the
          unmeasured fill is rewritten only when the worst observed load
          moved.
        * **PC** — Equation 3 is per-node; only changed nodes recompute.

        Returns ``self`` unchanged (same generation) when the delta does
        not intersect this state's node subset; otherwise a new state
        with ``generation + 1`` and fresh scratch memos.  With
        ``inplace=True`` the new state reuses (and mutates) this state's
        ``nl_mat`` buffer — the caller must drop the old state, which is
        what the snapshot-migration path does.
        """
        if self.params is None or self.lat is None or self.bwc is None:
            raise ValueError(
                "LoadState lacks incremental bookkeeping (built by hand?); "
                "rebuild via load_state() instead"
            )
        p = self.params
        changed_nodes = [n for n in delta.nodes if n in self.index]
        changed_pairs = {
            k
            for k in (*delta.latency_us, *delta.bandwidth_mbs)
            if k in self.lat
        }
        if not changed_nodes and not changed_pairs:
            return self

        cl, cl_vec = self.cl, self.cl_vec
        pc, pc_vec = self.pc, self.pc_vec
        raw_mat = self.raw_mat
        if changed_nodes:
            if raw_mat is not None:
                raw_mat = raw_mat if inplace else raw_mat.copy()
                for n in changed_nodes:
                    view = snapshot.nodes[n]
                    j = self.index[n]
                    for i, attr in enumerate(ATTRIBUTES):
                        if not attr.static:
                            # deltas never move static specs (a static
                            # change is structural → full rebuild)
                            raw_mat[i, j] = attr.extract(view)
                cl_vec = self._cl_from_raw(raw_mat)
                cl = dict(zip(self.nodes, cl_vec.tolist()))
            else:
                cl = compute_loads(
                    snapshot, p.compute_weights,
                    nodes=list(self.nodes), method=p.method,
                )
                cl_vec = np.array(
                    [cl[n] for n in self.nodes], dtype=np.float64
                )
            if p.ppn is None:
                pc = dict(self.pc)
                pc_vec = self.pc_vec.copy()
                for n in changed_nodes:
                    view = snapshot.nodes[n]
                    pc[n] = effective_proc_count(
                        view.cores, float(view.cpu_load[p.load_key])
                    )
                    pc_vec[self.index[n]] = pc[n]

        lat, bwc = self.lat, self.bwc
        nl, nl_mat = self.nl, self.nl_mat
        penalty = self.missing_penalty
        if changed_pairs:
            lat, bwc = dict(self.lat), dict(self.bwc)
            for key in changed_pairs:
                lat[key] = snapshot.latency(*key)
                bwc[key] = snapshot.bandwidth_complement(*key)
            nl = combine_pair_costs(
                lat, bwc, p.network_weights, method=p.method
            )
            nl_mat = self.nl_mat if inplace else self.nl_mat.copy()
            count = len(self.pair_order)
            vals = np.fromiter(
                (nl[k] for k in self.pair_order),
                dtype=np.float64, count=count,
            )
            nl_mat[self.pair_ii, self.pair_jj] = vals
            nl_mat[self.pair_jj, self.pair_ii] = vals
            penalty = max(nl.values()) if nl else 0.0
            if penalty != self.missing_penalty:
                nl_mat[~self.measured] = penalty
                np.fill_diagonal(nl_mat, 0.0)
        return dataclasses.replace(
            self,
            cl=cl, nl=nl, pc=pc,
            cl_vec=cl_vec, nl_mat=nl_mat, pc_vec=pc_vec,
            missing_penalty=penalty, lat=lat, bwc=bwc, raw_mat=raw_mat,
            generation=self.generation + 1, scratch={},
        )


def migrate_states(
    old: ClusterSnapshot, new: ClusterSnapshot, delta: "SnapshotDelta"
) -> int:
    """Carry every memoized :class:`LoadState` from ``old`` to ``new``.

    Each state is patched via :meth:`LoadState.apply_delta` and stored in
    ``new``'s derived cache under the same memo key, so the first
    decision against the patched snapshot is a cache hit instead of an
    O(V²) rebuild.  Returns the number of states migrated.  The old
    snapshot's states are consumed (patched in place, see
    :meth:`LoadState.apply_delta`); callers keep serving only ``new``.
    """
    src = getattr(old, "_derived_cache", None)
    if not src:
        return 0
    dst = derived_cache(new)
    moved = 0
    for key, value in list(src.items()):
        if (
            isinstance(key, tuple)
            and key
            and key[0] == "load_state"
            and isinstance(value, LoadState)
        ):
            dst[key] = value.apply_delta(new, delta, inplace=True)
            moved += 1
    return moved


def load_state(
    snapshot: ClusterSnapshot,
    *,
    nodes: Sequence[str] | None = None,
    compute_weights: ComputeWeights | None = None,
    network_weights: NetworkWeights | None = None,
    ppn: int | None = None,
    load_key: str = "m1",
    method: str = "mean",
) -> LoadState:
    """The :class:`LoadState` for ``snapshot``, memoized on the snapshot.

    The cache key covers everything the arrays depend on: the node
    subset (normalization runs over exactly the ranked set), both weight
    profiles, the normalization method, and the Equation-3 parameters.
    Repeated allocations against the same snapshot — the broker's hot
    path — skip all O(V²) Equation-1/2 work after the first call.
    """
    names = tuple(nodes) if nodes is not None else tuple(snapshot.nodes)
    cw = compute_weights or ComputeWeights()
    nw = network_weights or NetworkWeights()
    key = (
        "load_state",
        names,
        tuple(sorted(cw.weights.items())),
        (nw.w_lt, nw.w_bw),
        ppn,
        load_key,
        method,
    )
    cache = derived_cache(snapshot)
    state = cache.get(key)
    if state is None:
        state = _build_state(
            snapshot, names, cw, nw, ppn=ppn, load_key=load_key, method=method
        )
        cache[key] = state
    return state


def _build_state(
    snapshot: ClusterSnapshot,
    names: tuple[str, ...],
    compute_weights: ComputeWeights,
    network_weights: NetworkWeights,
    *,
    ppn: int | None,
    load_key: str,
    method: str,
) -> LoadState:
    cl = compute_loads(
        snapshot, compute_weights, nodes=list(names), method=method
    )
    lat, bwc = pair_inputs(snapshot, nodes=names)
    nl = combine_pair_costs(lat, bwc, network_weights, method=method)
    pc_all = effective_proc_counts(snapshot, ppn=ppn, load_key=load_key)
    pc = {n: pc_all[n] for n in names}

    v = len(names)
    index = {n: i for i, n in enumerate(names)}
    cl_vec = np.array([cl[n] for n in names], dtype=np.float64)
    missing_penalty = max(nl.values()) if nl else 0.0
    nl_mat = np.full((v, v), missing_penalty, dtype=np.float64)
    np.fill_diagonal(nl_mat, 0.0)
    measured = np.zeros((v, v), dtype=bool)
    pair_order = tuple(nl)
    count = len(pair_order)
    pair_ii = np.fromiter(
        (index[a] for a, _ in pair_order), dtype=np.intp, count=count
    )
    pair_jj = np.fromiter(
        (index[b] for _, b in pair_order), dtype=np.intp, count=count
    )
    if count:
        vals = np.fromiter(
            (nl[k] for k in pair_order), dtype=np.float64, count=count
        )
        nl_mat[pair_ii, pair_jj] = vals
        nl_mat[pair_jj, pair_ii] = vals
        measured[pair_ii, pair_jj] = True
        measured[pair_jj, pair_ii] = True
    pc_vec = np.array([pc[n] for n in names], dtype=np.int64)
    views = [snapshot.nodes[n] for n in names]
    raw_mat = np.array(
        [[a.extract(view) for view in views] for a in ATTRIBUTES],
        dtype=np.float64,
    )
    return LoadState(
        nodes=names,
        index=index,
        cl=cl,
        nl=nl,
        pc=pc,
        cl_vec=cl_vec,
        nl_mat=nl_mat,
        measured=measured,
        missing_penalty=missing_penalty,
        pc_vec=pc_vec,
        params=StateParams(
            compute_weights=compute_weights,
            network_weights=network_weights,
            ppn=ppn,
            load_key=load_key,
            method=method,
        ),
        lat=lat,
        bwc=bwc,
        pair_order=pair_order,
        pair_ii=pair_ii,
        pair_jj=pair_jj,
        raw_mat=raw_mat,
    )


def generate_all_candidates_fast(
    state: LoadState, n_processes: int, tradeoff: TradeOff
) -> list[CandidateSubgraph]:
    """Vectorized Algorithm 1 over every starting node.

    Returns candidates identical (nodes, order, process counts) to
    :func:`repro.core.candidate.generate_all_candidates` run on the same
    reference dicts.
    """
    v = len(state.nodes)
    if n_processes > 0 and v == 0:
        return []
    return _candidates_for_seeds(
        state, np.arange(v, dtype=np.intp), n_processes, tradeoff
    )


def _candidates_for_seeds(
    state: LoadState,
    seeds: np.ndarray,
    n_processes: int,
    tradeoff: TradeOff,
) -> list[CandidateSubgraph]:
    """Algorithm 1 for an arbitrary seed subset (rows of the cost matrix).

    With ``seeds == arange(V)`` this is exactly the all-seeds fast path
    (same element-wise ``α·CL + β·NL`` IEEE sequence, same lexsort); the
    pruned path passes only the surviving seeds and builds K×V instead
    of V×V intermediates.
    """
    if n_processes <= 0:
        raise ValueError(f"n_processes must be positive, got {n_processes}")
    v = len(state.nodes)
    s = len(seeds)
    if v == 0 or s == 0:
        return []
    rows = np.arange(s)
    costs = (
        tradeoff.alpha * state.cl_vec[None, :]
        + tradeoff.beta * state.nl_mat[seeds, :]
    )
    costs[rows, seeds] = 0.0  # A_v(v) = 0 per Algorithm 1 line 4
    # Reference sort key is (cost, u != start) with stable ties on node
    # order; lexsort's last key is primary and full ties keep ascending
    # index, which *is* node order.
    not_start = np.ones_like(costs)
    not_start[rows, seeds] = 0.0
    order = np.lexsort((not_start, costs), axis=-1)

    caps = np.maximum(state.pc_vec, 0)[order]  # capacities in visit order
    cum = np.cumsum(caps, axis=1)
    covered = cum >= n_processes
    any_covered = covered.any(axis=1)
    # Nodes are visited while the running total is short of the request,
    # so the visit count is (first covering index + 1), or all V nodes.
    k = np.where(any_covered, covered.argmax(axis=1) + 1, v)

    names = state.nodes
    out: list[CandidateSubgraph] = []
    for i in range(s):
        ki = int(k[i])
        idx = order[i, :ki]
        takes = caps[i, :ki].copy()
        filled = int(cum[i, ki - 1])
        if filled >= n_processes:
            # Last visited node is truncated to the remaining need.
            prev = int(cum[i, ki - 2]) if ki >= 2 else 0
            takes[-1] = n_processes - prev
        else:
            # Cluster exhausted: Algorithm 1 lines 12-13 round-robin the
            # remainder over the visited nodes, in visit order.
            extra, first = divmod(n_processes - filled, ki)
            takes += extra
            takes[:first] += 1
        sel_nodes: list[str] = []
        procs: dict[str, int] = {}
        for j, take in zip(idx.tolist(), takes.tolist()):
            if take > 0:
                name = names[j]
                sel_nodes.append(name)
                procs[name] = int(take)
        out.append(
            CandidateSubgraph(
                start=names[int(seeds[i])], nodes=tuple(sel_nodes), procs=procs
            )
        )
    return out


def score_candidates_fast(
    state: LoadState,
    candidates: Sequence[CandidateSubgraph],
    tradeoff: TradeOff,
) -> list[ScoredCandidate]:
    """Vectorized Equation 4 over a candidate set (membership matrix)."""
    if not candidates:
        return []
    c_raw, n_raw, c_norm, n_norm, totals = _score_arrays(
        state, candidates, tradeoff
    )
    return [
        ScoredCandidate(
            candidate=cand,
            compute_cost=float(c_raw[i]),
            network_cost=float(n_raw[i]),
            compute_cost_normalized=float(c_norm[i]),
            network_cost_normalized=float(n_norm[i]),
            total=float(totals[i]),
        )
        for i, cand in enumerate(candidates)
    ]


def _score_arrays(
    state: LoadState,
    candidates: Sequence[CandidateSubgraph],
    tradeoff: TradeOff,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    index = state.index
    members = np.zeros((len(candidates), len(state.nodes)), dtype=np.float64)
    for i, cand in enumerate(candidates):
        members[i, [index[n] for n in cand.nodes]] = 1.0
    c_raw = members @ state.cl_vec
    # ½·diag(M·NL·Mᵀ): the diagonal of NL is zero, so each row sums the
    # group's ordered pairs exactly once in each direction.
    n_raw = 0.5 * np.einsum("ij,ij->i", members @ state.nl_mat, members)
    c_total = float(c_raw.sum())
    n_total = float(n_raw.sum())
    c_norm = c_raw / c_total if c_total > 0 else np.zeros_like(c_raw)
    n_norm = n_raw / n_total if n_total > 0 else np.zeros_like(n_raw)
    totals = tradeoff.alpha * c_norm + tradeoff.beta * n_norm
    return c_raw, n_raw, c_norm, n_norm, totals


def select_best_fast(
    state: LoadState,
    candidates: Sequence[CandidateSubgraph],
    tradeoff: TradeOff,
) -> ScoredCandidate:
    """Algorithm 2 on arrays, falling back to the reference under ties.

    The fallback makes the fast path allocation-identical to
    :func:`repro.core.selection.select_best`: whenever the two best
    array totals are within ``_TIE_RTOL`` (where float summation order
    could flip the ranking), the winner is re-derived from the reference
    dicts stored on the state.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    c_raw, n_raw, c_norm, n_norm, totals = _score_arrays(
        state, candidates, tradeoff
    )
    ranked = sorted(
        range(len(candidates)),
        key=lambda i: (totals[i], candidates[i].start),
    )
    best = ranked[0]
    if len(ranked) > 1:
        gap = float(totals[ranked[1]] - totals[best])
        if gap <= _TIE_RTOL * max(1.0, abs(float(totals[best]))):
            return select_best(candidates, state.cl, state.nl, tradeoff)
    return ScoredCandidate(
        candidate=candidates[best],
        compute_cost=float(c_raw[best]),
        network_cost=float(n_raw[best]),
        compute_cost_normalized=float(c_norm[best]),
        network_cost_normalized=float(n_norm[best]),
        total=float(totals[best]),
    )


def best_candidate_fast(
    state: LoadState,
    n_processes: int,
    tradeoff: TradeOff,
    *,
    prune_threshold: int | None = None,
    prune_keep: int = PRUNE_KEEP_DEFAULT,
) -> ScoredCandidate:
    """Full fast pipeline: Algorithm 1 + Algorithm 2 on one state.

    When ``prune_threshold`` is set and the state has more nodes than
    that, the seed-pruned approximate path runs instead (see
    :func:`_best_candidate_pruned`); below the threshold the result is
    bit-identical to the exhaustive pipeline.
    """
    v = len(state.nodes)
    if (
        prune_threshold is not None
        and v > prune_threshold
        and 0 < prune_keep < v
    ):
        return _best_candidate_pruned(state, n_processes, tradeoff, prune_keep)
    candidates = [
        c
        for c in generate_all_candidates_fast(state, n_processes, tradeoff)
        if c.nodes
    ]
    if not candidates:
        raise ValueError("candidate generation produced no groups")
    return select_best_fast(state, candidates, tradeoff)


def _seed_lower_bounds(state: LoadState, tradeoff: TradeOff) -> np.ndarray:
    """Cheapest possible first addition cost for every seed, memoized.

    ``min_u A_v(u) = min_u (α·CL[u] + β·NL[v, u])`` over ``u ≠ v`` — a
    lower bound on what seed ``v``'s candidate pays for its first grown
    member.  O(V²) once per (state, tradeoff), cached in the state's
    scratch space; deltas reset the scratch, so the bound always matches
    the current arrays.
    """
    key = ("seed_first_addition", tradeoff.alpha)
    cached = state.scratch.get(key)
    if cached is None:
        if len(state.nodes) < 2:
            cached = np.zeros(len(state.nodes), dtype=np.float64)
        else:
            a = (
                tradeoff.alpha * state.cl_vec[None, :]
                + tradeoff.beta * state.nl_mat
            )
            np.fill_diagonal(a, np.inf)
            cached = a.min(axis=1)
        state.scratch[key] = cached
    return cached


def _best_candidate_pruned(
    state: LoadState, n_processes: int, tradeoff: TradeOff, keep: int
) -> ScoredCandidate:
    """Seed-pruned Algorithm 1 + sparse Equation 4 for fleet-scale states.

    Ranks every seed by a lower bound on its candidate's unnormalized
    Equation-4 contribution — ``α·CL[seed]`` when the seed alone covers
    the request, otherwise plus the cheapest first addition
    (:func:`_seed_lower_bounds`) — keeps the best ``keep`` seeds, grows
    only those K candidates (K×V intermediates instead of V×V), and
    scores them sparsely per group instead of via a V-wide membership
    matrix.

    Two documented approximations versus the exhaustive path: Equation-4
    normalization runs over the surviving candidate set rather than all
    |V| candidates, and ties resolve by the deterministic
    ``(total, start)`` key with no reference-dict fallback.  With
    ``keep >= V`` both paths score the same candidates, so the picks
    share their Equation-4 total and differ only on a tie — the
    regression suite pins that.
    """
    if n_processes <= 0:
        raise ValueError(f"n_processes must be positive, got {n_processes}")
    v = len(state.nodes)
    if v == 0:
        raise ValueError("candidate generation produced no groups")
    caps = np.maximum(state.pc_vec, 0)
    base = tradeoff.alpha * state.cl_vec
    bounds = np.where(
        caps >= n_processes, base, base + _seed_lower_bounds(state, tradeoff)
    )
    part = np.argpartition(bounds, keep - 1)[:keep]
    seeds = np.sort(part).astype(np.intp)  # candidate order = node order
    candidates = [
        c
        for c in _candidates_for_seeds(state, seeds, n_processes, tradeoff)
        if c.nodes
    ]
    if not candidates:
        raise ValueError("candidate generation produced no groups")
    index = state.index
    m = len(candidates)
    c_raw = np.empty(m, dtype=np.float64)
    n_raw = np.empty(m, dtype=np.float64)
    for i, cand in enumerate(candidates):
        idx = np.fromiter(
            (index[nm] for nm in cand.nodes),
            dtype=np.intp, count=len(cand.nodes),
        )
        c_raw[i] = float(state.cl_vec[idx].sum())
        n_raw[i] = 0.5 * float(state.nl_mat[np.ix_(idx, idx)].sum())
    c_total = float(c_raw.sum())
    n_total = float(n_raw.sum())
    c_norm = c_raw / c_total if c_total > 0 else np.zeros_like(c_raw)
    n_norm = n_raw / n_total if n_total > 0 else np.zeros_like(n_raw)
    totals = tradeoff.alpha * c_norm + tradeoff.beta * n_norm
    best = min(range(m), key=lambda i: (totals[i], candidates[i].start))
    return ScoredCandidate(
        candidate=candidates[best],
        compute_cost=float(c_raw[best]),
        network_cost=float(n_raw[best]),
        compute_cost_normalized=float(c_norm[best]),
        network_cost_normalized=float(n_norm[best]),
        total=float(totals[best]),
    )
