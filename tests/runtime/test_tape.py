"""Tests for bit tapes."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import SimulationError
from repro.runtime.tape import FixedTape, RandomTape, RecordingTape, random_bits
from tests.oracles import reference_random_bits


class TestRandomTape:
    def test_deterministic_for_seed(self):
        a = RandomTape(7).draw(64)
        b = RandomTape(7).draw(64)
        assert a == b

    def test_varies_with_seed(self):
        assert RandomTape(1).draw(64) != RandomTape(2).draw(64)

    def test_only_bits(self):
        assert set(RandomTape(3).draw(100)) <= {"0", "1"}

    def test_never_exhausts(self):
        tape = RandomTape(0)
        assert tape.remaining(10_000)

    def test_negative_draw_rejected(self):
        with pytest.raises(SimulationError):
            RandomTape(0).draw(-1)

    @pytest.mark.parametrize("seed", range(25))
    def test_bits_match_the_per_bit_reference(self, seed):
        """Every count 0..40, drawn in sequence from one generator, gives
        the reference's bits and leaves the generator where the reference
        leaves it; the tape draws the same sequence."""
        fast, reference = random.Random(seed), random.Random(seed)
        tape = RandomTape(seed)
        for count in [*range(41), *range(40, -1, -3)]:
            expected = reference_random_bits(reference, count)
            assert random_bits(fast, count) == expected
            assert fast.getstate() == reference.getstate()
            assert tape.draw(count) == expected
        with pytest.raises(SimulationError):
            tape.draw(-1)


class TestFixedTape:
    def test_replays_in_order(self):
        tape = FixedTape("0110")
        assert tape.draw(2) == "01"
        assert tape.draw(2) == "10"

    def test_exhaustion(self):
        tape = FixedTape("01")
        assert tape.remaining(2)
        tape.draw(2)
        assert not tape.remaining(1)
        with pytest.raises(SimulationError, match="exhausted"):
            tape.draw(1)

    def test_consumed_counter(self):
        tape = FixedTape("0101")
        tape.draw(3)
        assert tape.consumed == 3

    def test_invalid_characters_rejected(self):
        with pytest.raises(SimulationError, match="only 0/1"):
            FixedTape("01a")

    @pytest.mark.parametrize(
        "bits, valid",
        [("", True), ("0", True), ("0110", True), ("012", False), ("a", False),
         ("2", False), ("a01", False), ("0 1", False), ("01\n", False)],
    )
    def test_validation_table(self, bits, valid):
        if valid:
            assert FixedTape(bits).remaining(len(bits))
            return
        message = f"bitstring may contain only 0/1, got {bits!r}"
        with pytest.raises(SimulationError) as excinfo:
            FixedTape(bits)
        assert str(excinfo.value) == message

    def test_empty_tape(self):
        tape = FixedTape("")
        assert tape.remaining(0)
        assert tape.draw(0) == ""
        assert not tape.remaining(1)


class TestRecordingTape:
    def test_records_draws(self):
        tape = RecordingTape(FixedTape("0110"))
        tape.draw(1)
        tape.draw(3)
        assert tape.recorded == "0110"

    def test_forwards_remaining(self):
        tape = RecordingTape(FixedTape("01"))
        assert tape.remaining(2)
        tape.draw(2)
        assert not tape.remaining(1)

    def test_recording_random_is_replayable(self):
        recording = RecordingTape(RandomTape(5))
        drawn = recording.draw(32)
        replay = FixedTape(recording.recorded)
        assert replay.draw(32) == drawn
