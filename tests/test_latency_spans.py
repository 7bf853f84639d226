"""The five latency kinds as spans between two Figure 3 stamps.

``SampleSet`` builds a series in one pass over the columns of its kind's
span, and ``RawSample`` reads the same span table.  Both are checked
against the per-kind arithmetic they replaced, kept here as
``_reference_latency_cycles`` (the columnar form) and
``_reference_raw_latency_cycles`` (the per-row form), on arbitrary valid
columns and on real cells.  A 2-s Windows 2000 cell is pinned too: the
golden fingerprint suite covers only nt4 and win98.
"""

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import ExperimentConfig, run_latency_experiment
from repro.core.samples import LatencyKind, SampleColumns, SampleSet
from repro.sim.clock import CpuClock
from tests.test_determinism_fingerprint import sample_stream_fingerprint

_NONE = -1
ORIGINS = ("auto", "estimate", "truth")

#: (sample count, sha256 of the sample stream) of the 2-s win2k/office
#: cell at seed 1999.
WIN2K_OFFICE_2S = (
    871,
    "31e1878a01fdc8f5ae79dd28536878ee58fca76c4bbfe1bb1e642fd02dbae5f0",
)


def _reference_raw_latency_cycles(sample, kind, origin="auto"):
    """The per-row if-chain ``RawSample.latency_cycles`` replaced."""
    if kind is LatencyKind.ISR:
        start = sample.origin("truth") if origin == "auto" else sample.origin(origin)
        if sample.t_isr is None or start is None:
            return None
        return sample.t_isr - start
    if kind is LatencyKind.DPC:
        if sample.t_isr is None or sample.t_dpc is None:
            return None
        return sample.t_dpc - sample.t_isr
    if kind is LatencyKind.DPC_INTERRUPT:
        start = sample.origin(origin)
        if sample.t_dpc is None or start is None:
            return None
        return sample.t_dpc - start
    if kind is LatencyKind.THREAD:
        if sample.t_dpc is None or sample.t_thread is None:
            return None
        return sample.t_thread - sample.t_dpc
    if kind is LatencyKind.THREAD_INTERRUPT:
        start = sample.origin(origin)
        if sample.t_thread is None or start is None:
            return None
        return sample.t_thread - start
    raise ValueError(f"unknown kind {kind!r}")


def _reference_latency_cycles(
    columns: SampleColumns, kind: LatencyKind, priority: Optional[int], origin: str
) -> List[int]:
    """The per-kind, per-origin loops ``SampleSet._latency_cycles`` replaced."""
    if origin not in ORIGINS:
        raise ValueError(f"unknown origin mode {origin!r}")
    pri = columns.priority
    t_read = columns.t_read
    delay = columns.delay_cycles
    t_assert = columns.t_assert
    t_isr = columns.t_isr
    t_dpc = columns.t_dpc
    t_thread = columns.t_thread
    n = len(pri)
    out: List[int] = []
    append = out.append

    if kind is LatencyKind.ISR:
        if origin == "estimate":
            for i in range(n):
                if priority is not None and pri[i] != priority:
                    continue
                isr = t_isr[i]
                if isr == _NONE:
                    continue
                append(isr - (t_read[i] + delay[i]))
        else:
            for i in range(n):
                if priority is not None and pri[i] != priority:
                    continue
                isr = t_isr[i]
                start = t_assert[i]
                if isr == _NONE or start == _NONE:
                    continue
                append(isr - start)
        return out

    if kind is LatencyKind.DPC:
        for i in range(n):
            if priority is not None and pri[i] != priority:
                continue
            isr = t_isr[i]
            dpc = t_dpc[i]
            if isr == _NONE or dpc == _NONE:
                continue
            append(dpc - isr)
        return out

    if kind is LatencyKind.THREAD:
        for i in range(n):
            if priority is not None and pri[i] != priority:
                continue
            dpc = t_dpc[i]
            thread = t_thread[i]
            if dpc == _NONE or thread == _NONE:
                continue
            append(thread - dpc)
        return out

    if kind is LatencyKind.DPC_INTERRUPT:
        end_col = t_dpc
    elif kind is LatencyKind.THREAD_INTERRUPT:
        end_col = t_thread
    else:
        raise ValueError(f"unknown kind {kind!r}")

    if origin == "estimate":
        for i in range(n):
            if priority is not None and pri[i] != priority:
                continue
            end = end_col[i]
            if end == _NONE:
                continue
            append(end - (t_read[i] + delay[i]))
    elif origin == "truth":
        for i in range(n):
            if priority is not None and pri[i] != priority:
                continue
            end = end_col[i]
            start = t_assert[i]
            if end == _NONE or start == _NONE:
                continue
            append(end - start)
    else:  # auto
        for i in range(n):
            if priority is not None and pri[i] != priority:
                continue
            end = end_col[i]
            if end == _NONE:
                continue
            if t_isr[i] != _NONE:
                start = t_assert[i]
                if start == _NONE:
                    continue
                append(end - start)
            else:
                append(end - (t_read[i] + delay[i]))
    return out


#: A priority no generated or simulated row carries.
ABSENT_PRIORITY = 99


def assert_series_match_reference(sample_set: SampleSet) -> None:
    """Every kind x priority (all, each present, one absent) x origin."""
    columns = sample_set.columns
    for kind in LatencyKind:
        for priority in (None, *sorted(set(columns.priority)), ABSENT_PRIORITY):
            for origin in ORIGINS:
                assert sample_set._latency_cycles(kind, priority, origin) == (
                    _reference_latency_cycles(columns, kind, priority, origin)
                ), (kind, priority, origin)


_cycles = st.integers(min_value=0, max_value=10**12)
_optional = st.one_of(st.none(), _cycles)
_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),  # seq
        st.sampled_from((24, 28)),  # priority
        _cycles,  # t_read
        _cycles,  # delay_cycles
        _optional,  # t_assert
        _optional,  # t_isr
        _optional,  # t_dpc
        _optional,  # t_thread
    ),
    max_size=60,
)


def _columns(rows) -> SampleColumns:
    columns = SampleColumns()
    for row in rows:
        columns.append_cycle(*row)
    return columns


class TestSpanTableMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(rows=_rows)
    def test_one_pass_series_equal_the_per_kind_loops(self, rows):
        sample_set = SampleSet(CpuClock(), "win98", "office", 1.0, _columns(rows))
        assert_series_match_reference(sample_set)

    @settings(max_examples=300, deadline=None)
    @given(rows=_rows)
    def test_raw_sample_equals_the_per_row_if_chain(self, rows):
        for sample in _columns(rows):
            for kind in LatencyKind:
                for origin in ORIGINS:
                    assert sample.latency_cycles(kind, origin) == (
                        _reference_raw_latency_cycles(sample, kind, origin)
                    ), (sample, kind, origin)

    @pytest.mark.parametrize("os_name, stamps_isr", [("nt4", False), ("win98", True)])
    def test_real_cells_equal_the_per_kind_loops(self, os_name, stamps_isr):
        sample_set = run_latency_experiment(
            ExperimentConfig(os_name=os_name, workload="office", duration_s=2.0)
        ).sample_set
        # nt4 has no hooked PIT handler (auto falls back to the estimate);
        # win98 stamps t_isr (auto references the true assertion).
        assert any(t != _NONE for t in sample_set.columns.t_isr) is stamps_isr
        assert_series_match_reference(sample_set)

    @pytest.mark.parametrize("kind", list(LatencyKind))
    def test_unknown_origin_raises_for_every_kind(self, kind):
        sample_set = SampleSet(
            CpuClock(), "win98", "office", 1.0, _columns([(0, 28, 0, 5, 6, 7, 8, 9)])
        )
        with pytest.raises(ValueError, match="unknown origin mode"):
            sample_set.latencies_ms(kind, origin="bogus")


def test_win2k_cell_sample_stream_is_pinned():
    sample_set = run_latency_experiment(
        ExperimentConfig(os_name="win2k", workload="office", duration_s=2.0, seed=1999)
    ).sample_set
    assert (len(sample_set), sample_stream_fingerprint(sample_set)) == WIN2K_OFFICE_2S
