"""Chord-progression conditioning and remix preparation toolkit.

Parses textual chord progressions, renders them to frame-rate chroma,
recovers tempo, downbeats, and chords from audio, time-warps generated
tracks onto an input's downbeat grid, and mixes the result with a
preserved vocal stem.  The generation model itself lives behind an HTTP
endpoint; everything here runs locally and deterministically.
"""

from .audio import AudioBuffer, read_wav, resample_linear, to_mono, write_wav
from .beats import BeatGrid, NoTempoError, estimate_bpm, onset_envelope, track_beats
from .chords import (
    Chord,
    ChordEvent,
    ChordParseError,
    ChordSequence,
    NO_CHORD,
    TimeSignature,
    format_chord,
    parse_chord_symbol,
    parse_progression,
)
from .chroma import ChromaMatrix, chord_to_chroma, read_matrix, render_matrix, write_matrix
from .analysis import (
    ChromagramConfig,
    RecognitionConfig,
    compute_chromagram,
    melody_one_hot,
    recognize_chords,
)
from .formats import FormatError
from .pipeline import (
    ConditioningBundle,
    GenerationRequest,
    RemixConfig,
    StemSet,
    finalize_remix,
    peak_normalize,
    prepare_conditioning,
    request_generation,
    run_remix,
)
from .timewarp import AnchorMap, WsolaConfig, align_to_anchors, build_anchor_map

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "AnchorMap",
    "BeatGrid",
    "Chord",
    "ChordEvent",
    "ChordParseError",
    "ChordSequence",
    "ChromaMatrix",
    "ChromagramConfig",
    "ConditioningBundle",
    "FormatError",
    "GenerationRequest",
    "NO_CHORD",
    "NoTempoError",
    "RecognitionConfig",
    "RemixConfig",
    "StemSet",
    "TimeSignature",
    "WsolaConfig",
    "align_to_anchors",
    "build_anchor_map",
    "chord_to_chroma",
    "compute_chromagram",
    "estimate_bpm",
    "finalize_remix",
    "format_chord",
    "melody_one_hot",
    "onset_envelope",
    "parse_chord_symbol",
    "parse_progression",
    "peak_normalize",
    "prepare_conditioning",
    "read_matrix",
    "read_wav",
    "recognize_chords",
    "render_matrix",
    "request_generation",
    "resample_linear",
    "run_remix",
    "to_mono",
    "track_beats",
    "write_matrix",
    "write_wav",
]
