"""Line-oriented run configuration: ``key=value`` with ``#`` comments."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .aggregation import MODES
from .errors import ConfigError
from .tensor import DTYPE_NAMES

DTYPES = {name: dtype for dtype, name in DTYPE_NAMES.items()}
_CHOICES = {"fa_mode": MODES, "dtype": tuple(DTYPES)}


@dataclass(frozen=True)
class RunConfig:
    input: str = "noise"
    seed: int = 0
    channels: tuple = (16, 32, 64, 128, 256)
    pyramid_width: int = 256
    fa_mode: str = "full"
    reduction_ratio: int = 16
    dtype: str = "f32"
    dump_dir: str = ""

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    def override(self, **updates):
        """A copy with ``updates`` applied; a None or empty value leaves its field as it is."""
        updates = {k: v for k, v in updates.items() if v is not None and v != ""}
        return replace(self, **updates) if updates else self


def _parse_int(key, raw, minimum=None):
    try:
        value = int(raw, 0)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def parse_seed(raw):
    """A seed from its text: a non-negative integer, as the generators need."""
    return _parse_int("seed", raw, minimum=0)


def _parse_input(raw):
    if not raw:
        raise ConfigError("input must be 'noise', 'noise:HxW', or an image path")
    noise_size(raw)  # validate eagerly so errors name the config key
    return raw


def noise_size(spec):
    """Spatial dims ``(H, W)`` of a noise input spec, or None for an image path.

    Plain ``noise`` is 256x256; ``noise:HxW`` names the size.
    """
    if spec == "noise":
        return 256, 256
    if not spec.startswith("noise:"):
        return None
    body = spec[len("noise:"):]
    parts = body.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"input noise size must look like HxW, got {body!r}")
    h = _parse_int("input height", parts[0], minimum=1)
    w = _parse_int("input width", parts[1], minimum=1)
    return h, w


def _parse_value(key, raw):
    if key == "input":
        return _parse_input(raw)
    if key == "seed":
        return parse_seed(raw)
    if key == "channels":
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 5:
            raise ConfigError(f"channels must list 5 counts, got {raw!r}")
        return tuple(_parse_int("channels", p, minimum=1) for p in parts)
    if key in ("pyramid_width", "reduction_ratio"):
        return _parse_int(key, raw, minimum=1)
    if key in _CHOICES and raw not in _CHOICES[key]:
        raise ConfigError(f"{key} must be one of {_CHOICES[key]}, got {raw!r}")
    return raw  # fa_mode, dtype, or dump_dir (any path); parse_config has refused unknown keys


def parse_config(text, source="<config>"):
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in {f.name for f in fields(RunConfig)}:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, raw)
    return RunConfig(**values)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))
