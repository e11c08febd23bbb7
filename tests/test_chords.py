import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from chordweave.chords import (
    NO_CHORD,
    QUALITIES,
    Chord,
    ChordParseError,
    ChordSequence,
    ChordEvent,
    TimeSignature,
    chord_sequence_from_dict,
    chord_sequence_to_dict,
    format_chord,
    parse_chord_symbol,
    parse_progression,
    read_chord_sequence,
    write_chord_sequence,
)
from chordweave.formats import FormatError


def test_parse_triads():
    assert parse_chord_symbol("Eb:maj").pitch_classes() == {3, 7, 10}
    assert parse_chord_symbol("G:maj").pitch_classes() == {2, 7, 11}
    assert parse_chord_symbol("C:min").pitch_classes() == {0, 3, 7}


def test_bare_root_is_major():
    assert parse_chord_symbol("D").pitch_classes() == parse_chord_symbol("D:maj").pitch_classes()


def test_sharps_and_flats():
    assert parse_chord_symbol("F#:maj").root == parse_chord_symbol("Gb:maj").root == 6
    assert parse_chord_symbol("Cb:maj").root == 11
    assert parse_chord_symbol("B#:maj").root == 0


def test_no_chord():
    chord = parse_chord_symbol("N")
    assert chord.is_no_chord
    assert chord.pitch_classes() == set()


def test_slash_bass_adds_pitch_class():
    chord = parse_chord_symbol("C:maj/E")
    assert chord.bass == 4
    assert chord.pitch_classes() == {0, 4, 7}
    low = parse_chord_symbol("C:maj/A")
    assert low.pitch_classes() == {0, 4, 7, 9}


def test_seventh_qualities():
    assert parse_chord_symbol("G:7").pitch_classes() == {7, 11, 2, 5}
    assert parse_chord_symbol("A:min7").pitch_classes() == {9, 0, 4, 7}
    assert parse_chord_symbol("B:hdim7").pitch_classes() == {11, 2, 5, 9}


@pytest.mark.parametrize("token", ["H:maj", "C:majj", "C:", ":maj", "C:maj/", "Cmaj", ""])
def test_rejects_malformed_tokens(token):
    with pytest.raises(ChordParseError):
        parse_chord_symbol(token)


def test_parse_error_carries_token_and_position():
    with pytest.raises(ChordParseError) as info:
        parse_progression("C:maj X:maj", bpm=120)
    assert info.value.token == "X:maj"
    assert info.value.position == 6


def test_progression_bars_and_splits():
    seq = parse_progression("C:maj G:maj", bpm=120)
    assert len(seq.events) == 2
    assert seq.events[0].duration_s == pytest.approx(2.0)
    assert seq.duration_s == pytest.approx(4.0)

    split = parse_progression("C:maj,G:maj A:min", bpm=120)
    assert [e.duration_s for e in split.events] == pytest.approx([1.0, 1.0, 2.0])
    assert split.events[1].start_s == pytest.approx(1.0)


def test_progression_three_way_split():
    seq = parse_progression("C:maj,F:maj,G:maj", bpm=90, time_signature=TimeSignature(3, 4))
    assert [e.duration_s for e in seq.events] == pytest.approx([2 / 3, 2 / 3, 2 / 3])


def test_progression_rejects_empty_split_part():
    with pytest.raises(ChordParseError):
        parse_progression("C:maj,,G:maj", bpm=120)


def test_chord_at_boundaries():
    seq = parse_progression("C:maj G:maj", bpm=120)
    assert seq.chord_at(0.0).root == 0
    assert seq.chord_at(1.999).root == 0
    assert seq.chord_at(2.0).root == 7
    assert seq.chord_at(4.0) is None
    assert seq.chord_at(-0.1) is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_events_and_tempo_reject_non_finite(bad):
    with pytest.raises(ValueError):
        ChordEvent(Chord(0), bad, 2.0)
    with pytest.raises(ValueError):
        ChordEvent(Chord(0), 0.0, bad)
    with pytest.raises(ValueError):
        ChordSequence((ChordEvent(Chord(0), 0.0, 2.0),), bpm=bad)
    with pytest.raises(ValueError):
        parse_progression("C:maj", bpm=bad)


def test_events_must_be_contiguous():
    events = (
        ChordEvent(Chord(0), 0.0, 2.0),
        ChordEvent(Chord(7), 2.5, 2.0),
    )
    with pytest.raises(ValueError):
        ChordSequence(events, bpm=120.0)


def test_format_round_trip_all_qualities():
    for root in range(12):
        for name in QUALITIES:
            chord = Chord(root, QUALITIES[name])
            again = parse_chord_symbol(format_chord(chord))
            assert again.pitch_classes() == chord.pitch_classes()
    assert parse_chord_symbol(format_chord(NO_CHORD)).is_no_chord


def test_serialization_round_trip(tmp_path):
    seq = parse_progression("C:maj G:7,A:min7 N", bpm=96)
    path = tmp_path / "seq.json"
    write_chord_sequence(seq, path)
    again = read_chord_sequence(path)
    assert chord_sequence_to_dict(again) == chord_sequence_to_dict(seq)


def test_from_dict_rejects_wrong_format():
    with pytest.raises(FormatError):
        chord_sequence_from_dict({"format": "nope/v1"})


chords_st = st.builds(
    Chord,
    root=st.integers(0, 11),
    quality=st.sampled_from(sorted(QUALITIES)).map(QUALITIES.get),
    bass=st.one_of(st.none(), st.integers(0, 11)),
)


@given(chords_st)
def test_format_parse_identity(chord):
    token = format_chord(chord)
    again = parse_chord_symbol(token)
    assert again.quality == chord.quality
    assert again.root == chord.root
    assert again.bass == chord.bass


@given(
    st.lists(chords_st, min_size=1, max_size=12),
    st.floats(40.0, 220.0),
)
def test_progression_tiles_bars(chord_list, bpm):
    text = " ".join(format_chord(c) for c in chord_list)
    seq = parse_progression(text, bpm=bpm)
    bar_s = 4 * 60.0 / bpm
    assert seq.duration_s == pytest.approx(len(chord_list) * bar_s)
    assert seq.events[0].start_s == 0.0
    for prev, cur in zip(seq.events, seq.events[1:]):
        assert math.isclose(prev.end_s, cur.start_s, abs_tol=1e-9)
