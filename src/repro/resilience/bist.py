"""March-style built-in self-test of a TD-AM array.

A production associative memory cannot rely on an external tester: it
must *diagnose itself* from the only observable it has -- decoded
distances.  :class:`MarchBIST` implements a march-style test in exactly
those terms:

1. write a known background pattern ``P`` to every row,
2. search ``P`` itself: every healthy row must decode distance 0, so the
   per-row baseline ``d0`` directly counts that row's stuck-mismatch
   cells (a dead row reads the maximum distance -- the controller
   timeout);
3. for each stage ``s``, search ``P`` perturbed at ``s`` only: a healthy
   stage raises the row's distance to ``d0 + 1``; a stage whose response
   does *not* move with the query is faulty.

Repeating over several backgrounds (solid-low, solid-high, checkerboard)
guards against level-dependent marginal cells; the per-stage verdicts
are OR-ed across backgrounds.

**Diagnosability limit.** From distances alone, a stuck-mismatch at
stage ``s`` and a stuck-match at stage ``s'`` (both flagged faulty) are
behaviorally equivalent hypotheses: every query's distance equals
``|stuck-mismatch set| + (natural mismatches on healthy stages)``, so
only the *count* of stuck-mismatch cells per row (``d0``) is observable,
not their positions among the faulty set.  The diagnosis therefore
reports a definite :class:`CellFaultKind` only when the row's faulty set
is homogeneous (``d0 == 0`` -> all stuck-match; ``d0 == |faulty|`` ->
all stuck-mismatch) and ``UNKNOWN`` otherwise.  Repair does not care:
both kinds need the same stage masking or row retirement.  Likewise a
row whose every stage is stuck-mismatch is indistinguishable from (and
repaired identically to) a dead row, and is classified dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Bytes of int64 probe queries per ``search_batch`` call of the march:
#: 64 probes at 2048 stages, a whole background's probes at 128.
_PROBE_BLOCK_BYTES = 1 << 20


class CellFaultKind:
    """Diagnosed per-cell fault classification (string constants).

    ``STUCK_MISMATCH`` / ``STUCK_MATCH`` when the row's evidence pins the
    kind, ``UNKNOWN`` when the mixed-fault ambiguity (see module
    docstring) leaves only the faulty *position* certain.
    """

    STUCK_MISMATCH = "stuck_mismatch"
    STUCK_MATCH = "stuck_match"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CellDiagnosis:
    """One diagnosed faulty cell.

    Attributes:
        row: Physical row of the faulty cell.
        stage: Faulty stage (column).
        kind: A :class:`CellFaultKind` constant.
    """

    row: int
    stage: int
    kind: str


@dataclass(frozen=True)
class RowDiagnosis:
    """BIST verdict for one physical row.

    Attributes:
        row: Physical row index.
        dead: Whether the row reads the maximum distance under every
            probe (broken delay chain, or every stage stuck-mismatch --
            behaviorally identical, repaired identically).
        faulty_stages: Stages whose decoded distance did not respond to
            the query perturbation, across all backgrounds.
        stuck_mismatch_count: The row's exact-match baseline distance --
            the number of stuck-mismatch cells (meaningless for dead
            rows).
    """

    row: int
    dead: bool
    faulty_stages: Tuple[int, ...]
    stuck_mismatch_count: int

    @property
    def healthy(self) -> bool:
        """True when the row carries no diagnosed fault at all."""
        return not self.dead and not self.faulty_stages


@dataclass(frozen=True)
class DiagnosisReport:
    """Structured outcome of one full BIST run.

    Attributes:
        n_rows: Rows tested.
        n_stages: Stages per row.
        rows: Per-row verdicts, in row order.
        n_searches: Searches the test consumed (cost accounting).
        n_writes: Row writes the test consumed (endurance accounting).
    """

    n_rows: int
    n_stages: int
    rows: Tuple[RowDiagnosis, ...]
    n_searches: int
    n_writes: int

    @property
    def dead_rows(self) -> Tuple[int, ...]:
        """Rows diagnosed dead."""
        return tuple(r.row for r in self.rows if r.dead)

    @property
    def healthy_rows(self) -> Tuple[int, ...]:
        """Rows with no diagnosed fault."""
        return tuple(r.row for r in self.rows if r.healthy)

    @property
    def is_healthy(self) -> bool:
        """True when no row carries any fault."""
        return all(r.healthy for r in self.rows)

    @property
    def faulty_cells(self) -> Tuple[CellDiagnosis, ...]:
        """Every diagnosed faulty cell on non-dead rows, classified.

        The kind is definite only when the row's faulty set is
        homogeneous (see the module docstring's diagnosability limit).
        """
        cells: List[CellDiagnosis] = []
        for row in self.rows:
            if row.dead:
                continue
            n_faulty = len(row.faulty_stages)
            if row.stuck_mismatch_count == 0:
                kind = CellFaultKind.STUCK_MATCH
            elif row.stuck_mismatch_count >= n_faulty:
                kind = CellFaultKind.STUCK_MISMATCH
            else:
                kind = CellFaultKind.UNKNOWN
            cells.extend(
                CellDiagnosis(row=row.row, stage=s, kind=kind)
                for s in row.faulty_stages
            )
        return tuple(cells)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.is_healthy:
            return (
                f"BIST: {self.n_rows} rows healthy "
                f"({self.n_searches} searches, {self.n_writes} writes)"
            )
        return (
            f"BIST: {len(self.dead_rows)} dead rows, "
            f"{len(self.faulty_cells)} faulty cells on "
            f"{sum(1 for r in self.rows if not r.dead and r.faulty_stages)} "
            f"rows ({self.n_searches} searches, {self.n_writes} writes)"
        )


def default_backgrounds(n_stages: int, levels: int) -> List[np.ndarray]:
    """The standard march backgrounds: solid-low, solid-high, checkerboard.

    With more than two levels the checkerboard alternates the extreme
    levels, exercising both ladder ends at adjacent stages.
    """
    hi = levels - 1
    solid_low = np.zeros(n_stages, dtype=np.int64)
    solid_high = np.full(n_stages, hi, dtype=np.int64)
    checker = np.where(np.arange(n_stages) % 2 == 0, 0, hi).astype(np.int64)
    patterns = [solid_low, solid_high]
    if hi > 0:
        patterns.append(checker)
    return patterns


@dataclass
class MarchBIST:
    """March-style BIST over any array exposing ``write_all``/``search_batch``.

    Works on a bare :class:`~repro.core.array.FastTDAMArray`, a
    :class:`~repro.core.faults.FaultyTDAMArray` (the usual device under
    test), or anything with the same interface.  The test is
    *destructive*: it overwrites every row with test patterns, so the
    caller must restore the stored data afterwards
    (:class:`~repro.resilience.resilient.ResilientTDAMArray` keeps a
    shadow image for exactly that).

    Attributes:
        backgrounds: Test patterns; ``None`` selects
            :func:`default_backgrounds`.
    """

    backgrounds: Optional[Sequence[np.ndarray]] = field(default=None)

    def run(self, array) -> DiagnosisReport:
        """Execute the march and return the structured diagnosis.

        Each background's own query and its ``N`` single-stage probes
        go through ``search_batch`` in blocks of
        :data:`_PROBE_BLOCK_BYTES` of queries; every probe counts as one
        search.
        """
        config = array.config
        n_rows = array.n_rows
        n_stages = config.n_stages
        levels = config.levels
        patterns = (
            list(self.backgrounds)
            if self.backgrounds is not None
            else default_backgrounds(n_stages, levels)
        )
        block = max(1, _PROBE_BLOCK_BYTES // (8 * n_stages))
        n_searches = 0
        n_writes = 0
        baseline = np.zeros(n_rows, dtype=np.int64)
        # Stages that failed to respond, per row, across patterns.
        faulty = np.zeros((n_rows, n_stages), dtype=bool)
        # A row is dead only if it reads max distance under *every* probe.
        always_max = np.ones(n_rows, dtype=bool)
        for pattern in patterns:
            pattern = np.asarray(pattern, dtype=np.int64)
            if pattern.shape != (n_stages,):
                raise ValueError(
                    f"background shape {pattern.shape} != ({n_stages},)"
                )
            array.write_all(np.tile(pattern, (n_rows, 1)))
            n_writes += n_rows
            # Probe p perturbs stage p - 1; probe 0 is the pattern itself.
            for start in range(0, n_stages + 1, block):
                stages = np.arange(start, min(start + block, n_stages + 1)) - 1
                at = np.flatnonzero(stages >= 0)
                probes = np.tile(pattern, (stages.size, 1))
                probes[at, stages[at]] = (pattern[stages[at]] + 1) % levels
                d = array.search_batch(probes).hamming_distances
                n_searches += stages.size
                always_max &= (d == n_stages).all(axis=0)
                if start == 0:
                    d0 = d[0]
                    baseline = np.maximum(baseline, d0)
                # Healthy stage: the single perturbation raises the
                # row's distance by exactly one over its baseline.
                faulty[:, stages[at]] |= (d[at] != d0 + 1).T
        rows = tuple(
            RowDiagnosis(
                row=r,
                dead=bool(always_max[r]),
                faulty_stages=tuple(np.flatnonzero(faulty[r]).tolist())
                if not always_max[r]
                else (),
                stuck_mismatch_count=int(baseline[r])
                if not always_max[r]
                else n_stages,
            )
            for r in range(n_rows)
        )
        return DiagnosisReport(
            n_rows=n_rows,
            n_stages=n_stages,
            rows=rows,
            n_searches=n_searches,
            n_writes=n_writes,
        )
