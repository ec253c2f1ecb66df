import hashlib
import itertools
import types
from collections import Counter

import numpy as np
import pytest

from latinsq.core import ValidationError, cyclic_decomposition, cyclic_square, from_grid
from latinsq.sampler import (
    MarkovState,
    SeededRng,
    _permutations,
    _row_search,
    _walk,
    enumerate_all,
    enumerate_reduced,
    jm_step,
    sample_squares,
    sample_uniform,
)


def test_seeded_rng_reproducible_and_stream_independent():
    a = SeededRng(99, 0)
    b = SeededRng(99, 0)
    assert [a.randint(1000) for _ in range(50)] == [b.randint(1000) for _ in range(50)]
    c = SeededRng(99, 1)
    assert [SeededRng(99, 0).randint(1000) for _ in range(50)] != [
        c.randint(1000) for _ in range(50)
    ]


# Values recorded from the flat-cube walk and the tuple-buffered RNG that the
# mask walk and the memoryview buffers replaced: the random stream and every
# square drawn from it must not change.  The shuffle pin is recorded from the
# generator's own Fisher-Yates, which `shuffle` calls directly.
PANEL_SQUARE_0 = (
    (7, 10, 3, 2, 4, 8, 1, 5, 6, 9),
    (10, 3, 8, 7, 9, 1, 2, 6, 5, 4),
    (2, 5, 7, 1, 8, 10, 6, 9, 4, 3),
    (5, 1, 4, 10, 7, 6, 8, 3, 9, 2),
    (9, 7, 1, 6, 3, 4, 5, 10, 2, 8),
    (3, 6, 10, 9, 1, 2, 7, 4, 8, 5),
    (4, 8, 6, 5, 2, 9, 10, 7, 3, 1),
    (8, 2, 5, 4, 6, 3, 9, 1, 10, 7),
    (6, 4, 9, 8, 5, 7, 3, 2, 1, 10),
    (1, 9, 2, 3, 10, 5, 4, 8, 7, 6),
)
MIXED_BOUND_DRAWS = [
    1, 999, 0, 0, 196, 6, 1, 741, 1, 0, 141, 6, 0, 679, 0,
    1, 703, 0, 0, 619, 3, 0, 384, 4, 1, 967, 3, 0, 797, 0,
]
SHUFFLE_400_SHA256 = "2d53c6bc0a25c456360d5886afb1162cbb5c9bb8b3fae5ddf5d432c9a73f1b45"


def test_stream_pinned_order10_panel_square():
    assert sample_uniform(10, SeededRng(777).derive(0)).cells == PANEL_SQUARE_0


# Recorded before the walk moved from line masks onto symbol/column/row
# arrays: an order-31 square.
ORDER31_SQUARE_SHA256 = "b64690bc7457f74f2eae1ce38bdf8056eb96e11eb016cc89a3f0b0c6fa72e0b7"


def test_stream_pinned_order31_square():
    cells = sample_uniform(31, SeededRng(777).derive(3), burnin=9610).cells
    assert hashlib.sha256(repr(cells).encode()).hexdigest() == ORDER31_SQUARE_SHA256


# The number of draws behind some walks, recorded by counting `randint`
# calls while the walk still drew through `randint`: the first panel square,
# the four order-10 panel walks (burn-in 10 000), the four walks of orders
# 10, 17, 24 and 31 at seed 11 (burn-in 10n^2), and 1000 order-4 samples.
PANEL_SQUARE_0_DRAWS = 280_197
PANEL_WALKS_DRAWS = 1_115_130
LINK_WALKS_DRAWS = 1_459_105
ORDER4_SAMPLES_DRAWS = 475_828


def test_draws_counts_the_walk():
    rng = SeededRng(777).derive(0)
    assert rng.draws == 0
    assert sample_uniform(10, rng).cells == PANEL_SQUARE_0
    assert rng.draws == PANEL_SQUARE_0_DRAWS
    panel = [SeededRng(777).derive(t) for t in range(4)]
    for rng in panel:
        sample_uniform(10, rng, burnin=10_000)
    assert sum(rng.draws for rng in panel) == PANEL_WALKS_DRAWS
    links = [SeededRng(11).derive(stream) for stream in range(4)]
    for rng, n in zip(links, (10, 17, 24, 31)):
        sample_uniform(n, rng, burnin=10 * n * n)
    assert sum(rng.draws for rng in links) == LINK_WALKS_DRAWS
    rng = SeededRng(1414).derive(0)
    assert sum(1 for _ in sample_squares(4, rng, 1000)) == 1000
    assert rng.draws == ORDER4_SAMPLES_DRAWS


def test_draws_counts_randint_across_refills():
    rng = SeededRng(3)
    for i in range(2 * 8192 + 7):
        rng.randint(5 if i % 3 else 1000)
    rng.shuffle(list(range(50)))  # not a buffered draw
    assert rng.draws == 2 * 8192 + 7


# Recorded while the walk still drew through `randint`: the draws, squares
# and final state of `_interleaved_walk(SeededRng(2024, 7))`, and the number
# of draws it takes in all.
INTERLEAVED_SHA256 = "03b90c057af4b9765d0881162ae718c8419c90ac44bf9d722b79feef147fdeb2"
INTERLEAVED_DRAWS = 201_899


def _masks(st):
    """The line masks of a state, the form in which INTERLEAVED_SHA256 was
    recorded: bit s of rc[r*n+c], bit c of rs[r*n+s] and bit r of cs[c*n+s]
    for each 1-entry (r, c, s), two bits on a doubled line."""
    n = st.n
    rc = [1 << s for line in st.sym for s in line]
    rs = [1 << c for line in st.col for c in line]
    cs = [1 << r for line in st.row for r in line]
    if st.improper is not None:
        r, c, s = st.improper
        r_lo, r_hi, c_lo, c_hi, s_lo, s_hi = st.doubled
        rc[r * n + c] = 1 << s_lo | 1 << s_hi
        rs[r * n + s] = 1 << c_lo | 1 << c_hi
        cs[c * n + s] = 1 << r_lo | 1 << r_hi
    return rc, rs, cs


def _copy(st):
    """A state with the same entries and its own row lists."""
    sym, col, row = ([list(line) for line in lines] for lines in (st.sym, st.col, st.row))
    return MarkovState(st.n, sym, col, row, st.improper, st.doubled)


def _step_until(st, rng, proper):
    for _ in range(100):
        if st.is_proper == proper:
            return
        jm_step(st, rng)
    raise AssertionError(f"no {'proper' if proper else 'improper'} state in 100 moves")


def _interleaved_walk(rng):
    """Order-7 moves and samples on `rng`, with direct draws of both of the
    walk's bounds between them, past several refills of each buffer."""
    n3 = 7**3
    st = MarkovState.from_square(cyclic_square(7))
    draws = []
    for i in range(6000):
        jm_step(st, rng)
        draws.append(rng.randint(2))
        if i % 2:
            draws.append(rng.randint(n3))
    # the bound-2 buffer spent as a proper move starts: the move draws only
    # below n^3, so a walk that refilled at entry would take the next bound-2
    # buffer from the generator before the next bound-n^3 one
    _step_until(st, rng, proper=True)
    while rng._buffers[2][1] < 8192:
        draws.append(rng.randint(2))
    jm_step(st, rng)
    draws += [rng.randint(n3) for _ in range(8192)]
    draws.append(rng.randint(2))
    # the same with the bounds swapped, from an improper state
    _step_until(st, rng, proper=False)
    while rng._buffers[n3][1] < 8192:
        draws.append(rng.randint(n3))
    jm_step(st, rng)
    draws += [rng.randint(2) for _ in range(8192)]
    draws.append(rng.randint(n3))
    # two walks in a row: the buffer positions carry from one to the next
    squares = [sq.cells for _ in range(2) for sq in sample_squares(7, rng, 3)]
    return draws, squares, (*_masks(st), st.improper)


def test_walk_refills_lazily_and_writes_positions_back():
    rng = SeededRng(2024, 7)
    got = _interleaved_walk(rng)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == INTERLEAVED_SHA256
    assert rng.draws == INTERLEAVED_DRAWS


def test_stream_pinned_mixed_bound_draws():
    rng = SeededRng(99, 0)
    draws = [rng.randint(k) for _ in range(10) for k in (2, 1000, 7)]
    assert draws == MIXED_BOUND_DRAWS
    assert all(type(d) is int for d in draws)


def test_stream_pinned_shuffle():
    items = list(range(400))
    SeededRng(99, 0).shuffle(items)
    assert items[:8] == [216, 399, 157, 141, 109, 398, 340, 391]
    assert hashlib.sha256(repr(items).encode()).hexdigest() == SHUFFLE_400_SHA256


# chi-square upper 1e-4 quantile on 23 degrees of freedom (24 orderings of 4)
CHI2_CRIT_23_1E4 = 57.07


def test_shuffle_orderings_uniform():
    rng = SeededRng(2718)
    draws = 24_000
    counts = Counter()
    for _ in range(draws):
        items = [0, 1, 2, 3]
        rng.shuffle(items)
        counts[tuple(items)] += 1
    assert set(counts) == set(itertools.permutations(range(4)))
    expected = draws / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_23_1E4, chi2


def test_sample_distinct_members_and_size_checked():
    rng = SeededRng(5)
    items = tuple(range(100, 130))
    for k in (0, 1, 7, 30):
        got = rng.sample(items, k)
        assert len(got) == k and len(set(got)) == k and set(got) <= set(items)
    for k in (-1, 31):
        with pytest.raises(ValueError, match="sample size"):
            rng.sample(items, k)


# chi-square upper 1e-4 quantile on 19 degrees of freedom (20 ordered pairs of 5)
CHI2_CRIT_19_1E4 = 50.80


def test_sample_ordered_pairs_uniform():
    rng = SeededRng(1618)
    draws = 20_000
    counts = Counter(tuple(rng.sample(range(5), 2)) for _ in range(draws))
    assert set(counts) == set(itertools.permutations(range(5), 2))
    expected = draws / 20
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_19_1E4, chi2


def test_sample_does_not_copy_its_input():
    # a list of 10**12 items would not fit in memory; the sample touches 3
    got = SeededRng(12).sample(range(10**12), 3)
    assert len(set(got)) == 3 and all(0 <= x < 10**12 for x in got)


class _ScriptedRaw:
    """A bit generator whose raw 64-bit draws are given in advance."""

    def __init__(self, values):
        self.values = list(values)

    def random_raw(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out, dtype=np.uint64)


def test_sample_replaces_a_rejected_draw():
    # bound 3: a raw draw of 0 leaves the low word 0, below 2**64 mod 3 = 1,
    # so it is rejected and the next raw draw, 2**63, picks position 1
    rng = SeededRng(0)
    rng.generator = types.SimpleNamespace(bit_generator=_ScriptedRaw([0, 2**63]))
    assert rng.sample("abc", 1) == ["b"]
    # without the rejection the same first draw picks position 0
    rng.generator = types.SimpleNamespace(bit_generator=_ScriptedRaw([1]))
    assert rng.sample("abc", 1) == ["a"]


def test_shuffle_and_sample_leave_randint_buffers_alone():
    rng = SeededRng(8)
    rng.shuffle(list(range(400)))
    rng.sample(range(50), 10)
    assert rng._buffers == {}


def test_buffer_refills_after_8192_draws():
    # the 8193rd draw of a bound refills its buffer from the generator
    a, b = SeededRng(6), SeededRng(6)
    first = [a.randint(3) for _ in range(8192 + 5)]
    fills = [b.generator.integers(0, 3, size=8192, dtype="int64") for _ in range(2)]
    assert first == [int(v) for v in fills[0]] + [int(v) for v in fills[1][:5]]


def test_derive_paths_do_not_collide():
    root = SeededRng(5)
    s1 = root.derive(1).derive(2)
    s2 = root.derive(2).derive(1)
    assert s1.stream != s2.stream


def test_jm_step_order1_is_identity():
    st = MarkovState.from_square(cyclic_square(1))
    before = _copy(st)
    jm_step(st, SeededRng(0))
    assert (st.sym, st.col, st.row) == (before.sym, before.col, before.row) and st.is_proper
    assert st.line_sums_ok() and st.to_square() == cyclic_square(1)


def test_jm_step_preserves_invariants():
    # checked after every step, through both proper and improper states
    for n, steps in ((2, 3000), (3, 3000), (4, 3000), (5, 5000), (6, 3000), (7, 3000)):
        rng = SeededRng(12).derive(n)
        st = MarkovState.from_square(cyclic_square(n))
        improper_seen = 0
        for _ in range(steps):
            jm_step(st, rng)
            assert st.line_sums_ok(), (n, st.improper)
            improper_seen += not st.is_proper
        assert improper_seen < steps and (improper_seen > 0) == (n > 2)  # order 2 stays proper


def test_line_sums_ok_rejects_broken_states():
    proper = MarkovState.from_square(cyclic_square(4))
    improper = MarkovState.from_square(cyclic_square(4))
    _step_until(improper, SeededRng(4), proper=False)
    r, c, s = improper.improper
    r_lo, r_hi, c_lo, c_hi, s_lo, s_hi = improper.doubled
    other = ({0, 1, 2, 3} - {s, s_lo, s_hi}).pop()  # on no line through the -1 cell

    def broken(start, edit):
        st = _copy(start)
        edit(st)
        return not st.line_sums_ok()

    def on_its_own_cell(st):  # -1 at the 0-cell (0, 0, 1), also a member of its lines
        st.improper, st.doubled = (0, 0, 1), (0, 1, 0, 1, 0, 1)

    def doubled(st, **members):
        names = ("r_lo", "r_hi", "c_lo", "c_hi", "s_lo", "s_hi")
        values = dict(zip(names, st.doubled), **members)
        st.doubled = tuple(values[name] for name in names)

    assert not broken(proper, lambda st: None) and not broken(improper, lambda st: None)
    assert broken(proper, lambda st: st.sym[0].__setitem__(0, 1))  # the lists disagree
    assert broken(proper, lambda st: st.col[0].__setitem__(0, 1))
    assert broken(proper, lambda st: st.row[0].__setitem__(0, 1))
    assert broken(proper, lambda st: st.sym[0].__setitem__(0, 4))  # a symbol beyond the order
    assert broken(proper, lambda st: st.row[0].__setitem__(0, 4))  # a row index >= n
    assert broken(proper, lambda st: setattr(st, "sym", [st.sym[0]] * 4))  # aliased rows
    # row 0 of the cyclic square reads 0, 1, 2, 3 in all three lists, so
    # sharing it passes every line sum, but a move would write it twice
    assert broken(proper, lambda st: st.col.__setitem__(0, st.sym[0]))
    assert broken(proper, lambda st: st.sym[1].pop())  # a short row
    assert broken(proper, lambda st: st.row.pop())  # a missing row
    assert broken(proper, lambda st: setattr(st, "doubled", improper.doubled))  # doubled, no -1
    assert broken(proper, lambda st: setattr(st, "improper", (0, 0, 1)))  # -1, no doubled lines
    assert broken(improper, lambda st: setattr(st, "doubled", None))
    assert broken(improper, lambda st: setattr(st, "improper", (4, c, s)))  # outside the cube
    assert broken(improper, lambda st: doubled(st, s_hi=s_lo))  # equal members
    assert broken(improper, lambda st: doubled(st, c_lo=c_hi))
    assert broken(improper, lambda st: doubled(st, r_hi=r_lo))
    assert broken(improper, lambda st: doubled(st, s_lo=s_hi, s_hi=s_lo))  # higher first
    assert broken(proper, on_its_own_cell)  # the three views agree on it
    lo, hi = sorted((s_lo, other))
    assert broken(improper, lambda st: doubled(st, s_lo=lo, s_hi=hi))  # disagrees with col, row
    # an entry equal to an index but not an int: the sets compare by value
    def retyped(name, i, j, kind=float):
        def edit(st):
            line = getattr(st, name)[i]
            line[j] = kind(line[j])
        return edit

    assert broken(proper, lambda st: st.sym[0].__setitem__(1, 1.0))
    assert broken(proper, retyped("col", 2, 3))
    assert broken(proper, retyped("row", 3, 0))
    assert broken(proper, retyped("sym", 0, 1, bool))
    assert broken(improper, retyped("sym", (r + 1) % 4, c))  # a row off the doubled lines
    assert broken(improper, retyped("col", r, (s + 1) % 4))
    assert broken(improper, retyped("row", c, (s + 1) % 4))
    assert broken(improper, lambda st: doubled(st, s_lo=float(s_lo)))
    # the stale entries on the doubled lines are not read
    assert not broken(improper, lambda st: st.sym[r].__setitem__(c, 9))
    assert not broken(improper, lambda st: st.col[r].__setitem__(s, 9))
    assert not broken(improper, lambda st: st.row[c].__setitem__(s, 9))


def _flat_jm_step(n, flat, improper, rng):
    """Reference move on the flat n^3 cube (value at r*n*n + c*n + s); the
    scan-based form the mask walk replaced.  Returns the new -1 cell."""
    n2 = n * n
    n3 = n2 * n
    if improper is None:
        while True:
            idx = rng.randint(n3)
            if flat[idx] == 0:
                break
        r, rest = divmod(idx, n2)
        c, s = divmod(rest, n)
        r1 = next(rr for rr in range(n) if flat[rr * n2 + c * n + s] == 1)
        c1 = next(cc for cc in range(n) if flat[r * n2 + cc * n + s] == 1)
        s1 = next(ss for ss in range(n) if flat[r * n2 + c * n + ss] == 1)
    else:
        r, c, s = improper
        # each line through the -1 cell holds two 1-entries; the draw picks
        # the first or the second in scan order
        r1 = [rr for rr in range(n) if flat[rr * n2 + c * n + s] == 1][rng.randint(2)]
        c1 = [cc for cc in range(n) if flat[r * n2 + cc * n + s] == 1][rng.randint(2)]
        s1 = [ss for ss in range(n) if flat[r * n2 + c * n + ss] == 1][rng.randint(2)]
    for (x, y, z), d in (
        ((r, c, s), 1), ((r, c1, s1), 1), ((r1, c, s1), 1), ((r1, c1, s), 1),
        ((r1, c, s), -1), ((r, c1, s), -1), ((r, c, s1), -1), ((r1, c1, s1), -1),
    ):
        flat[x * n2 + y * n + z] += d
    return (r1, c1, s1) if flat[r1 * n2 + c1 * n + s1] == -1 else None


def _cube(st):
    """The flat 0/+-1 cube a state describes."""
    n, rc = st.n, _masks(st)[0]
    flat = [rc[r * n + c] >> s & 1 for r in range(n) for c in range(n) for s in range(n)]
    if st.improper is not None:
        r, c, s = st.improper
        flat[(r * n + c) * n + s] = -1
    return flat


@pytest.mark.parametrize("n", range(2, 9))
def test_jm_step_matches_flat_cube_reference(n):
    for seed in (1, 2, 3):
        st = MarkovState.from_square(cyclic_square(n))
        flat, improper = _cube(st), None
        rng_mask, rng_flat = SeededRng(seed).derive(n), SeededRng(seed).derive(n)
        for step in range(5000):
            jm_step(st, rng_mask)
            improper = _flat_jm_step(n, flat, improper, rng_flat)
            assert st.improper == improper and _cube(st) == flat, (seed, step)


def _flat_visits(n, flat, improper, rng, visits):
    """Flat reference moves until the `visits`-th proper state."""
    while visits:
        improper = _flat_jm_step(n, flat, improper, rng)
        visits -= improper is None
    return improper


@pytest.mark.parametrize("n, visits", [(10, 1000), (31, 400)])
def test_walk_matches_flat_cube_reference(n, visits):
    # one multi-visit walk against the reference, past several refills of
    # the bound-2 buffer; the cube is compared once, at the end
    st = MarkovState.from_square(cyclic_square(n))
    flat = _cube(st)
    rng_mask, rng_flat = SeededRng(19).derive(n), SeededRng(19).derive(n)
    _walk(st, rng_mask, visits)
    assert _flat_visits(n, flat, None, rng_flat, visits) is None
    assert st.is_proper and _cube(st) == flat
    assert rng_mask.draws == rng_flat.draws > 3 * 8192


@pytest.mark.parametrize("spent", [8189, 8190, 8191, 8192])
def test_walk_reads_coin_codes_up_to_the_buffer_edge(spent):
    # an improper move reads its three coins as one code unless it starts at
    # position 8190 or 8191 of the bound-2 buffer.  A walk entered in an
    # improper state reads its first move's coins one at a time, so it is
    # also started 3 positions earlier, where its second move is at `spent`
    n = 5
    improper_start = MarkovState.from_square(cyclic_square(n))
    _step_until(improper_start, SeededRng(4), proper=False)
    for start in (MarkovState.from_square(cyclic_square(n)), improper_start):
        for pre in (spent, spent - 3):
            st = _copy(start)
            flat, improper = _cube(st), st.improper
            rng_mask, rng_flat = SeededRng(23, pre), SeededRng(23, pre)
            for rng in (rng_mask, rng_flat):
                for _ in range(pre):
                    rng.randint(2)
            for visits in (1, 1, 3):
                _walk(st, rng_mask, visits)
                improper = _flat_visits(n, flat, improper, rng_flat, visits)
                assert st.improper == improper and _cube(st) == flat, (start.improper, pre)
                assert rng_mask.draws == rng_flat.draws
            jm_step(st, rng_mask)
            improper = _flat_jm_step(n, flat, improper, rng_flat)
            assert st.improper == improper and _cube(st) == flat
            assert rng_mask.draws == rng_flat.draws


def _visits_by_steps(st, rng, visits):
    while visits:
        jm_step(st, rng)
        visits -= st.is_proper


@pytest.mark.parametrize("n", [*range(2, 9), 31])
def test_walk_matches_repeated_jm_step(n):
    # one _walk call per segment against one jm_step per move, on the same
    # stream; odd segments first step both states into an improper one
    # (order 2 has none) and the zero-visit segment leaves it so for the
    # next, so a doubled line lost between calls shows
    for seed in (1, 2):
        stepped = MarkovState.from_square(cyclic_square(n))
        walked = MarkovState.from_square(cyclic_square(n))
        rng_step, rng_walk = SeededRng(seed).derive(n), SeededRng(seed).derive(n)
        for i, visits in enumerate((1, 0, 3, 2 * n, 1, 5)):
            while i % 2 and stepped.is_proper and n > 2:
                jm_step(stepped, rng_step)
                jm_step(walked, rng_walk)
            entered_improper = not walked.is_proper
            _visits_by_steps(stepped, rng_step, visits)
            _walk(walked, rng_walk, visits)
            assert _masks(walked) == _masks(stepped)
            assert walked.improper == stepped.improper, (seed, i)
            assert walked.is_proper or (entered_improper and visits == 0)
            assert walked.line_sums_ok()
        next_draws = [[rng.randint(k) for k in (2, n**3) for _ in range(5)]
                      for rng in (rng_step, rng_walk)]
        assert next_draws[0] == next_draws[1]


def test_walk_moves_the_state_arrays_in_place():
    st = MarkovState.from_square(cyclic_square(6))
    lists = (st.sym, st.col, st.row)
    lines = [*st.sym, *st.col, *st.row]
    rng = SeededRng(9)
    for _ in range(50):
        jm_step(st, rng)
        _walk(st, rng, 3)
        assert all(a is b for a, b in zip((st.sym, st.col, st.row), lists))
        assert all(a is b for a, b in zip([*st.sym, *st.col, *st.row], lines))


def test_order2_proper_states_are_the_two_squares():
    rng = SeededRng(3)
    st = MarkovState.from_square(cyclic_square(2))
    seen = set()
    for _ in range(200):
        jm_step(st, rng)
        if st.is_proper:
            seen.add(st.to_square().cells)
    assert seen == {((1, 2), (2, 1)), ((2, 1), (1, 2))}


def test_sample_uniform_reproducible_and_valid():
    s1 = sample_uniform(10, SeededRng(41).derive(7), burnin=500)
    s2 = sample_uniform(10, SeededRng(41).derive(7), burnin=500)
    assert s1 == s2
    from_grid([list(r) for r in s1.cells])  # validates


def test_sample_uniform_order1():
    assert sample_uniform(1, SeededRng(0)).cells == ((1,),)


def test_sample_squares_refuses_counts_that_are_not_ints():
    # refused when the iterator is made: a float burn-in or thin would walk
    # for ever, and a bool would be read as 0 or 1
    for bad in ({"count": 2.5}, {"count": True}, {"burnin": 1.5}, {"thin": False}):
        name = next(iter(bad))
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            sample_squares(4, SeededRng(1), **{"count": 1, **bad})
    # the order is checked first, so a float order is not blamed on the
    # burn-in that defaults to 10 n^3, nor a string left to fail in n**3
    for n, kind in ((True, "bool"), (2.0, "float"), ("3", "str")):
        with pytest.raises(TypeError, match=f"^order must be an int, got {kind}$"):
            sample_squares(n, SeededRng(1), 1)
        with pytest.raises(TypeError, match=f"^order must be an int, got {kind}$"):
            sample_uniform(n, SeededRng(1))


def test_constructors_refuse_an_order_that_is_not_an_int():
    # a bool would be read as order 1 or 0, a float fail inside range
    for make in (cyclic_square, cyclic_decomposition, enumerate_reduced, enumerate_all):
        for n, kind in ((True, "bool"), (False, "bool"), (3.0, "float"), ("3", "str")):
            with pytest.raises(TypeError, match=f"^order must be an int, got {kind}$"):
                make(n)


def test_sample_stream_thins_deterministically():
    got1 = [sq.cells for sq in sample_squares(4, SeededRng(8).derive(0), 5)]
    got2 = [sq.cells for sq in sample_squares(4, SeededRng(8).derive(0), 5)]
    assert got1 == got2
    assert len(set(got1)) > 1  # thinning actually moves


def test_sample_squares_count_zero_yields_nothing():
    for n in (1, 4):
        assert list(sample_squares(n, SeededRng(1), 0)) == []
    assert len(list(sample_squares(4, SeededRng(1), 1))) == 1


def test_negative_walk_arguments_rejected():
    with pytest.raises(ValueError, match="count"):
        sample_squares(4, SeededRng(1), -1)
    with pytest.raises(ValueError, match="burnin"):
        sample_squares(4, SeededRng(1), 2, burnin=-1)
    with pytest.raises(ValueError, match="thin"):
        sample_squares(4, SeededRng(1), 2, thin=-1)
    with pytest.raises(ValueError, match="burnin"):
        sample_uniform(4, SeededRng(1), burnin=-1)
    with pytest.raises(ValidationError):
        sample_squares(0, SeededRng(1), 1)
    # zero burn-in and zero thinning are allowed: the walk starts at the cyclic square
    assert sample_uniform(4, SeededRng(1), burnin=0) == cyclic_square(4)
    assert len(set(sq.cells for sq in sample_squares(4, SeededRng(1), 3, thin=0))) == 1


def test_single_cell_marginal_order5():
    # P(cell (1,1) = s) should be 1/5 within 3 standard errors
    trials = 4000
    counts = {s: 0 for s in range(1, 6)}
    for sq in sample_squares(5, SeededRng(2024).derive(0), trials):
        counts[sq.symbol(1, 1)] += 1
    p = 1 / 5
    se = (p * (1 - p) / trials) ** 0.5
    for s in range(1, 6):
        assert abs(counts[s] / trials - p) < 3 * se, counts


def test_enumerate_reduced_counts():
    assert [sum(1 for _ in enumerate_reduced(n)) for n in range(1, 6)] == [1, 1, 1, 4, 56]


def test_enumerate_all_counts_and_formula():
    import math

    for n in range(1, 6):
        total = sum(1 for _ in enumerate_all(n))
        reduced = sum(1 for _ in enumerate_reduced(n))
        assert total == math.factorial(n) * math.factorial(n - 1) * reduced


def test_enumerate_all_distinct_and_valid():
    seen = set()
    for sq in enumerate_all(4):
        from_grid([list(r) for r in sq.cells])
        assert sq.cells not in seen
        seen.add(sq.cells)
    assert len(seen) == 576


# Recorded on the cell-by-cell enumerators that the row-permutation search
# replaced: the squares, and the order they come in, must not change.
REDUCED_6_SHA256 = "1739f6e58d571d2f5d349b140011def02ade1595b91ba380c480067276d3dd26"
ALL_4_SHA256 = "b83d07c2a99e309d15ea9e3eb62b4fa133609a08c65621d29280ce8b7fc8cab7"
# Recorded on the row search that tested every entry of each row's list
# against the rows above, before forward checking replaced it.
ALL_5_SHA256 = "c7aa207f47681aa8410c70349f121ad249c308973ddd14664752d58fa74758e6"


def _cells_digest(squares):
    return hashlib.sha256("".join(repr(sq.cells) for sq in squares).encode()).hexdigest()


def test_enumerations_pinned():
    assert _cells_digest(enumerate_reduced(6)) == REDUCED_6_SHA256
    assert _cells_digest(enumerate_all(4)) == ALL_4_SHA256
    assert _cells_digest(enumerate_all(5)) == ALL_5_SHA256


def test_enumerations_in_row_major_order():
    for squares in [*(enumerate_reduced(n) for n in range(1, 7)),
                    *(enumerate_all(n) for n in range(1, 6))]:
        cells = [sq.cells for sq in squares]
        assert all(a < b for a, b in zip(cells, cells[1:]))


def _cycle_type(p):
    seen, lengths = set(), []
    for start in range(1, len(p) + 1):
        length = 0
        while start not in seen:
            seen.add(start)
            start = p[start - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_order7_second_row_classes():
    # Squares of order 7 with the identity as first row, one derangement pi
    # of each cycle type as second row, and rows 3..7 sorted by their first
    # entry.  Conjugating pi by a permutation applied to the columns and the
    # symbols alike is an isotopy, so each class stands for every
    # derangement of its type, and each class square for 5! orderings of
    # rows 3..7 and 7! first rows: the total is the number of Latin squares
    # of order 7.
    perms = _permutations(7)
    identity = perms[:1]
    types_ = Counter(_cycle_type(p) for p, _ in perms if all(p[c] != c + 1 for c in range(7)))
    classes = {(3, 2, 2): (2, 3, 1, 5, 4, 7, 6), (4, 3): (2, 3, 4, 1, 6, 7, 5),
               (5, 2): (2, 3, 4, 5, 1, 7, 6), (7,): (2, 3, 4, 5, 6, 7, 1)}
    counts = {}
    for kind, pi in classes.items():
        assert _cycle_type(pi) == kind
        free = [s for s in range(1, 8) if s not in (1, pi[0])]
        choices = [identity, [e for e in perms if e[0] == pi]]
        choices += [[e for e in perms if e[0][0] == s] for s in free]
        counts[kind] = sum(1 for _ in _row_search(7, choices))
    assert counts == {(3, 2, 2): 55296, (4, 3): 54528, (5, 2): 55040, (7,): 54720}
    assert {kind: types_[kind] for kind in classes} == {(3, 2, 2): 210, (4, 3): 420, (5, 2): 504, (7,): 720}
    assert sum(types_.values()) == sum(types_[kind] for kind in classes)  # every type is covered
    total = sum(types_[kind] * counts[kind] for kind in classes)
    assert total == 101_652_480
    assert total * 5040 * 120 == 61_479_419_904_000


def test_enumeration_limits_enforced():
    # checked when called, before the iterator is touched
    with pytest.raises(ValidationError):
        enumerate_reduced(7)
    with pytest.raises(ValidationError):
        enumerate_all(6)
    with pytest.raises(ValidationError):
        enumerate_reduced(0)
    with pytest.raises(ValidationError):
        enumerate_all(0)


def test_enumerate_reduced_with_prefix():
    # a prefixed enumeration is the full one filtered on its leading rows
    for n in (5, 6):
        full = [sq.cells for sq in enumerate_reduced(n)]
        cyclic = cyclic_square(n).cells
        for k in range(n + 1):
            prefix = [list(row) for row in cyclic[:k]]
            got = [sq.cells for sq in enumerate_reduced(n, row_prefix=prefix)]
            assert got and got == [cells for cells in full if cells[:k] == cyclic[:k]], (n, k)


def test_enumerate_reduced_prefix_rows_must_match_whole():
    # a later prefix row with a wrong first entry, or a short one, matches
    # no square
    assert list(enumerate_reduced(4, [[1, 2, 3, 4], [9, 1, 4, 3]])) == []
    assert list(enumerate_reduced(4, [[1, 2, 3, 4], [2, 1]])) == []
    # and a prefix longer than the square matches none either
    assert list(enumerate_reduced(2, [[1, 2], [2, 1], [1, 2]])) == []


def test_enumerate_reduced_last_prefix_row_must_be_forced():
    # the last row is read off the columns; a whole prefix whose last row is
    # another permutation matches no square
    rows = [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2]]
    assert [sq.cells[3] for sq in enumerate_reduced(4, [*rows, [4, 3, 2, 1]])] == [(4, 3, 2, 1)]
    assert list(enumerate_reduced(4, [*rows, [4, 3, 1, 2]])) == []


def test_numpy_loads_on_the_first_draw():
    # counting, decomposing and partial transversals draw nothing, so they
    # never import numpy; the first sample does
    import os
    import subprocess
    import sys
    from pathlib import Path

    import latinsq

    code = "\n".join([
        "import sys",
        "import latinsq, latinsq.cli",
        "from latinsq import count_transversals, cyclic_square, decompose, max_partial_transversal",
        "square = cyclic_square(5)",
        "assert count_transversals(square) == 15",
        "assert decompose(square).status == 'some'",
        "assert len(max_partial_transversal(square).cells) == 5",
        "assert 'numpy' not in sys.modules, 'numpy loaded before any draw'",
        "latinsq.sample_uniform(4, latinsq.SeededRng(1), burnin=1)",
        "assert 'numpy' in sys.modules",
    ])
    src = str(Path(latinsq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
