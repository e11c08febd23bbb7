"""Command-line entry point: one subcommand per pipeline stage.

Each subcommand is a thin wrapper over the library; anything it can do,
the modules can do in-process.  Machine-readable results go to --out (or
stdout for JSON), diagnostics to stderr.  Exit codes: 0 success, 1 bad
input or arguments, 2 file I/O failure, 3 generation-endpoint failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import analysis, beats, chords, chroma, pipeline, timewarp
from .audio import read_wav, to_mono, write_wav
from .formats import FormatError, _finite, _positive, dump_document, dumps_document, load_document
from .pipeline import GenerationBackendError, PipelineStepError

ENDPOINT_ENV_VAR = "CHORDWEAVE_ENDPOINT"
_DEFAULTS = pipeline.RemixConfig()


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog.split()[0] + ": error: " + message)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="count", default=0, help="diagnostics to stderr")
    common.add_argument("--config", help="JSON file of default flag values (flags still win)")
    return common


def _info(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _emit_json(doc: dict, out: str | None) -> None:
    if out is None:
        sys.stdout.write(dumps_document(doc))
    else:
        dump_document(doc, out)


def _emit_matrix(matrix: chroma.ChromaMatrix, args) -> None:
    _info(args, f"{matrix.n_frames} frames at {matrix.frame_rate_hz:g} Hz")
    if args.csv:
        if args.out is None:
            raise ValueError("--csv output needs --out")
        chroma.write_matrix_csv(matrix, args.out)
    else:
        _emit_json(chroma.chroma_matrix_to_dict(matrix), args.out)


def _config(args) -> pipeline.RemixConfig:
    """The command's RemixConfig: its flags over the defaults."""
    values = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(pipeline.RemixConfig)
        if hasattr(args, f.name)
    }
    if hasattr(args, "frame_rate"):
        values["conditioning_frame_rate_hz"] = args.frame_rate
    if hasattr(args, "qualities"):
        values["recognition"] = analysis.RecognitionConfig(
            quality_names=tuple(q.strip() for q in args.qualities.split(",") if q.strip()),
            confidence_threshold=args.confidence_threshold,
        )
    return pipeline.RemixConfig(**values)


def _analysis_input(path, config: pipeline.RemixConfig):
    """The WAV at path as step 2 ingests it for remix, then made mono."""
    return to_mono(pipeline.ingest_stems(read_wav(path), None, config).instrumental)


def _cmd_parse(args) -> int:
    seq = chords.parse_progression(
        args.progression, args.bpm, chords.TimeSignature(args.beats_per_bar, args.beat_unit)
    )
    _info(args, f"{len(seq.events)} events over {seq.duration_s:g} s")
    _emit_json(chords.chord_sequence_to_dict(seq), args.out)
    return 0


def _cmd_encode(args) -> int:
    config = _config(args)
    seq = chords.read_chord_sequence(args.chords)
    _emit_matrix(chroma.render_matrix(seq, config.conditioning_frame_rate_hz), args)
    return 0


def _cmd_analyze_chords(args) -> int:
    config = _config(args)
    audio = _analysis_input(args.audio, config)
    grid = pipeline.analyze_beats(audio, config, args.bpm)
    _info(args, f"estimated tempo {grid.bpm:.1f} BPM")
    seq = pipeline.extract_chords(audio, grid, config)
    _info(args, f"{len(seq.events)} chord segments")
    _emit_json(chords.chord_sequence_to_dict(seq), args.out)
    return 0


def _cmd_beats(args) -> int:
    config = _config(args)
    grid = pipeline.analyze_beats(_analysis_input(args.audio, config), config)
    _info(
        args, f"{grid.bpm:.1f} BPM, {len(grid.beats_s)} beats, {len(grid.downbeats_s)} downbeats"
    )
    _emit_json(beats.beat_grid_to_dict(grid), args.out)
    return 0


def _cmd_melody(args) -> int:
    config = _config(args)
    _finite(args.silence_floor, "silence_floor")
    audio = _analysis_input(args.audio, config)
    raw = analysis.compute_chromagram(
        audio, dataclasses.replace(config.chromagram, normalization="none")
    )
    _emit_matrix(analysis.melody_one_hot(raw, args.silence_floor), args)
    return 0


def _cmd_align(args) -> int:
    config = _config(args)
    audio = read_wav(args.audio)
    source = beats.read_beat_grid(args.source_grid)
    target = beats.read_beat_grid(args.target_grid)
    anchors = timewarp.build_anchor_map(source, target)
    warped = timewarp.align_to_anchors(audio, anchors, config.wsola)
    _info(args, f"warped {audio.duration_s:.2f} s onto {warped.duration_s:.2f} s")
    write_wav(warped, args.out, args.encoding)
    return 0


def _cmd_mix(args) -> int:
    config = _config(args)
    generated = read_wav(args.generated)
    instrumental = read_wav(args.input)
    vocals = read_wav(args.vocals) if args.vocals else None
    stems = pipeline.ingest_stems(instrumental, vocals, config)
    if args.input_grid is not None:
        input_grid = beats.read_beat_grid(args.input_grid)
    else:
        input_grid = pipeline.analyze_beats(stems.instrumental, config)
    if args.generated_grid is not None:
        generated_grid = beats.read_beat_grid(args.generated_grid)
    else:
        generated_grid = pipeline.estimate_generated_grid(generated, input_grid, config)
    mixed = pipeline.finalize_remix(generated, stems, generated_grid, input_grid, config)
    _info(args, f"mixed {mixed.duration_s:.2f} s")
    write_wav(mixed, args.out, args.encoding)
    return 0


def _cmd_remix(args) -> int:
    config = _config(args)
    _positive(args.timeout_s, "timeout_s")
    instrumental = read_wav(args.audio)
    vocals = read_wav(args.vocals) if args.vocals else None
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV_VAR)
    if args.dry_run:
        pipeline.run_remix(
            instrumental, vocals, args.prompt, config, mode="dry_run", out_path=args.out
        )
        _info(args, f"request document written to {args.out}")
        return 0
    bundle, req, mixed = pipeline.run_remix(
        instrumental,
        vocals,
        args.prompt,
        config,
        endpoint=endpoint,
        mode="live",
        timeout_s=args.timeout_s,
    )
    _info(args, f"generated and mixed {mixed.duration_s:.2f} s at {bundle.beat_grid.bpm:.1f} BPM")
    write_wav(mixed, args.out, args.encoding)
    return 0


def _add_frame_rate_flag(parser) -> None:
    parser.add_argument(
        "--frame-rate",
        type=float,
        default=_DEFAULTS.conditioning_frame_rate_hz,
        help="conditioning chroma frame rate (Hz)",
    )


def _add_recognition_flags(parser) -> None:
    rec = _DEFAULTS.recognition
    parser.add_argument(
        "--qualities", default=",".join(rec.quality_names), help="comma-separated chord qualities"
    )
    parser.add_argument("--confidence-threshold", type=float, default=rec.confidence_threshold)


def _add_tempo_flags(parser) -> None:
    parser.add_argument("--min-bpm", type=float, default=_DEFAULTS.min_bpm)
    parser.add_argument("--max-bpm", type=float, default=_DEFAULTS.max_bpm)
    parser.add_argument("--beats-per-bar", type=int, default=_DEFAULTS.beats_per_bar)


def build_parser() -> tuple[_Parser, list[argparse.ArgumentParser]]:
    common = _common_flags()
    parser = _Parser(prog="chordweave", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("parse", parents=[common], help="progression text to chord-seq JSON")
    p.add_argument("progression", help='e.g. "C:maj F:maj,G:7 C:maj"')
    p.add_argument("--bpm", type=float, required=True)
    p.add_argument("--beats-per-bar", type=int, default=_DEFAULTS.beats_per_bar)
    p.add_argument("--beat-unit", type=int, default=4)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("encode", parents=[common], help="chord-seq JSON to chroma-matrix JSON")
    p.add_argument("--chords", required=True, help="chord-seq document")
    _add_frame_rate_flag(p)
    p.add_argument("--csv", action="store_true", help="write CSV instead of JSON")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("analyze-chords", parents=[common], help="recognize chords in a WAV")
    p.add_argument("audio")
    tolerance = 100 * _DEFAULTS.bpm_seed_tolerance
    p.add_argument("--bpm", type=float, help=f"search within {tolerance:g}%% of this tempo")
    _add_tempo_flags(p)
    _add_recognition_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze_chords)

    p = sub.add_parser("beats", parents=[common], help="tempo and beat grid of a WAV")
    p.add_argument("audio")
    _add_tempo_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_beats)

    p = sub.add_parser("melody", parents=[common], help="one-hot melody chroma of a WAV")
    p.add_argument("audio")
    p.add_argument("--silence-floor", type=float, default=analysis.SILENCE_FLOOR)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_melody)

    p = sub.add_parser("align", parents=[common], help="warp a WAV between two beat grids")
    p.add_argument("audio")
    p.add_argument("--source-grid", required=True, help="beat-grid document of the audio")
    p.add_argument("--target-grid", required=True, help="beat-grid document to land on")
    p.add_argument("--encoding", choices=("pcm16", "float32"), default="pcm16")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("mix", parents=[common], help="warp generated audio onto an input and mix")
    p.add_argument("generated")
    p.add_argument("--input", required=True, help="original input WAV (grid reference)")
    p.add_argument("--vocals", help="vocal stem WAV to preserve")
    p.add_argument("--generated-grid", help="beat-grid document (estimated when omitted)")
    p.add_argument("--input-grid", help="beat-grid document (estimated when omitted)")
    _add_tempo_flags(p)
    p.add_argument("--generated-gain", type=float, default=_DEFAULTS.generated_gain)
    p.add_argument("--vocal-gain", type=float, default=_DEFAULTS.vocal_gain)
    p.add_argument("--ceiling-dbfs", type=float, default=_DEFAULTS.ceiling_dbfs)
    p.add_argument("--encoding", choices=("pcm16", "float32"), default="pcm16")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("remix", parents=[common], help="full pipeline against an endpoint")
    p.add_argument("audio", help="input WAV (instrumental, or full mix)")
    p.add_argument("--prompt", required=True, help="style text for the generation backend")
    p.add_argument("--vocals", help="vocal stem WAV to preserve")
    p.add_argument("--dry-run", action="store_true", help="write the request document, no network")
    p.add_argument("--endpoint", help=f"generation URL (default ${ENDPOINT_ENV_VAR})")
    p.add_argument("--timeout-s", type=float, default=pipeline.DEFAULT_TIMEOUT_S)
    _add_frame_rate_flag(p)
    _add_tempo_flags(p)
    _add_recognition_flags(p)
    p.add_argument("--encoding", choices=("pcm16", "float32"), default="pcm16")
    p.add_argument("--out", required=True, help="request JSON (dry run) or mix WAV")
    p.set_defaults(func=_cmd_remix)

    return parser, list(sub.choices.values())


def _config_value(parser, action, key: str, value):
    """A --config value as its flag takes it, or FormatError naming the key.

    A flag that takes no value (a switch, or -v's count) takes a JSON
    value of its default's type: true or false, or an integer.  A JSON
    string is converted and checked as argparse does a command-line word.
    A number is taken only by an int or float flag that holds it exactly.
    """
    if action.nargs == 0:
        if type(value) is type(action.default):
            return value
    elif isinstance(value, str):
        try:
            converted = parser._get_value(action, value)
            parser._check_value(action, converted)
        except argparse.ArgumentError as exc:
            raise FormatError(f"config file option {key!r}: {exc.message}") from None
        return converted
    elif type(value) in (int, float) and action.type in (int, float):
        try:
            converted = action.type(value)
        except (OverflowError, ValueError):  # int() of an infinity
            converted = None
        if converted == value:
            return converted
    raise FormatError(f"config file option {key!r}: invalid value {json.dumps(value)}")


def _apply_config_file(argv, parsers) -> None:
    """Seed parser defaults from --config's JSON; explicit flags still win.

    Each value is converted by _config_value for every command that has
    the flag, so a value a flag would refuse is refused before any work.
    """
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if path is None:
        return
    doc = load_document(path)
    keys = {key.replace("-", "_").lstrip("_"): key for key in doc}
    actions = [{a.dest: a for a in p._actions if a.dest != "help"} for p in parsers]
    unknown = sorted(set(keys).difference(*actions))
    if unknown:
        raise FormatError(f"config file sets unknown options: {', '.join(unknown)}")
    for p, own in zip(parsers, actions):
        p.set_defaults(
            **{
                dest: _config_value(p, own[dest], key, doc[key])
                for dest, key in keys.items()
                if dest in own
            }
        )


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, parsers = build_parser()
    try:
        _apply_config_file(argv, parsers)
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            print("chordweave: error: a command is required", file=sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code is None else int(exc.code)
    except GenerationBackendError as exc:
        print(f"chordweave: endpoint error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"chordweave: I/O error: {exc}", file=sys.stderr)
        return 2
    except (PipelineStepError, ValueError) as exc:
        print(f"chordweave: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
