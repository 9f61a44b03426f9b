"""Backend registry: from a :class:`StoreSpec` to a live object store.

Each backend module registers a ``from_spec`` constructor with
:func:`register_backend`, declaring its name, a one-line description
(surfaced by ``python -m repro --list-backends``) and the options it
accepts (name → converter).  Backend names, CLI choices and option
validation all derive from the registry, so adding a backend is one
file plus one decorator (see docs/architecture.md, "add a backend in
one file").

:func:`build_store` is the single construction path:

* ``spec.shards > 1`` (or ``backend="sharded"``) builds a
  :class:`~repro.backends.sharded.ShardedStore` striping over per-shard
  sub-specs;
* otherwise the named backend's factory gets a fresh
  :class:`~repro.disk.device.BlockDevice` carrying the spec's
  :class:`~repro.disk.policy.DevicePolicy` plus the spec with its
  options validated and type-converted (:func:`resolve_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.backends.base import ObjectStore
from repro.backends.spec import StoreSpec, _parse_bool, _parse_bytes
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import ConfigError

# ----------------------------------------------------------------------
# Option converters (shared vocabulary for backend declarations)
# ----------------------------------------------------------------------
size_option = _parse_bytes
bool_option = _parse_bool


def float_option(value: Any) -> float:
    return float(value)


def int_option(value: Any) -> int:
    return int(value)


def choice_option(*choices: str) -> Callable[[Any], str]:
    def convert(value: Any) -> str:
        text = str(value)
        if text not in choices:
            raise ConfigError(
                f"bad value {text!r}; choose from {choices}"
            )
        return text
    return convert


def object_option(kind: type) -> Callable[[Any], Any]:
    """An option holding a config object (programmatic specs only)."""
    def convert(value: Any) -> Any:
        if not isinstance(value, kind):
            raise ConfigError(
                f"expected a {kind.__name__}, got {type(value).__name__}"
            )
        return value
    return convert


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry."""

    name: str
    factory: Callable[[StoreSpec, BlockDevice], ObjectStore]
    description: str
    options: Mapping[str, Callable[[Any], Any]]
    #: Composite backends are desugared by build_store, never called.
    composite: bool = False


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(name: str, *, description: str = "",
                     options: Mapping[str, Callable[[Any], Any]]
                     | None = None,
                     composite: bool = False):
    """Class/function decorator registering a ``from_spec`` factory.

    The factory is called as ``factory(spec, device)`` with the spec's
    options already converted; it returns an :class:`ObjectStore`.
    """
    def deco(factory):
        if name in _REGISTRY:
            raise ConfigError(f"backend {name!r} registered twice")
        _REGISTRY[name] = BackendInfo(
            name=name, factory=factory,
            description=description or (factory.__doc__ or "").strip(),
            options=dict(options or {}), composite=composite,
        )
        return factory
    return deco


def _ensure_loaded() -> None:
    """Import the backend modules so their decorators have run.

    Imports are lazy (inside this function) because the backend modules
    themselves import :func:`register_backend` from here.
    """
    import repro.backends.blob_backend    # noqa: F401
    import repro.backends.file_backend    # noqa: F401
    import repro.backends.gfs_backend     # noqa: F401
    import repro.backends.lfs_backend     # noqa: F401
    import repro.backends.sharded         # noqa: F401


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, in registration order."""
    _ensure_loaded()
    return tuple(_REGISTRY)


def backend_info(name: str) -> BackendInfo:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; choose from {tuple(_REGISTRY)}"
        ) from None


def backend_descriptions() -> dict[str, str]:
    _ensure_loaded()
    return {name: info.description for name, info in _REGISTRY.items()}


# ----------------------------------------------------------------------
# Spec resolution and construction
# ----------------------------------------------------------------------
def resolve_spec(spec: StoreSpec) -> StoreSpec:
    """Validate and normalize a spec against the registry.

    Desugars the ``sharded`` pseudo-backend onto its inner backend,
    then validates and type-converts every option against the target
    backend's declaration.  The result is what run records serialize:
    fully resolved, so ablations are attributable from the JSON alone.
    """
    info = backend_info(spec.backend)
    if info.composite:
        options = spec.options_dict()
        inner = options.pop("inner", "filesystem")
        inner_info = backend_info(str(inner))
        if inner_info.composite:
            raise ConfigError("sharded stores do not nest")
        spec = replace(spec, backend=inner_info.name,
                       options=tuple(sorted(options.items())),
                       shards=spec.shards if spec.shards > 1 else 2)
        info = inner_info
    if spec.overlap and spec.shards <= 1:
        raise ConfigError(
            "overlap=true needs shards > 1 (the overlap model schedules "
            "per-shard device lanes; a single volume has one lane)"
        )
    if spec.queue == "event" and not spec.overlap:
        raise ConfigError(
            "queue=event needs overlap=true (the event queue simulates "
            "per-shard lanes of the overlap scheduler; without overlap "
            "there is no scheduler to layer it under)"
        )
    if spec.arrival != "closed":
        if spec.queue != "event":
            raise ConfigError(
                "arrival=... needs queue=event (the round model has no "
                "arrival process; every request in a round finishes "
                "together)"
            )
        from repro.disk.events import ArrivalSpec

        ArrivalSpec.parse(spec.arrival)
    if spec.replicas > spec.shards:
        raise ConfigError(
            f"replicas={spec.replicas} needs at least that many shards "
            f"(spec has {spec.shards})"
        )
    if spec.faults:
        from repro.disk.faults import FaultProfile

        profile = FaultProfile.parse(spec.faults)
        scoped = profile.max_shard()
        if spec.shards <= 1 and (profile.losses or scoped is not None):
            raise ConfigError(
                "loss and shard-scoped fault clauses need shards > 1 "
                "(a single volume has no shard to kill or target)"
            )
        if scoped is not None and scoped >= spec.shards:
            raise ConfigError(
                f"fault clause targets shard {scoped}, but the spec "
                f"has only {spec.shards} shards"
            )
    converted = {}
    for name, value in spec.options:
        converter = info.options.get(name)
        if converter is None:
            raise ConfigError(
                f"backend {info.name!r} does not accept option "
                f"{name!r}; accepted: {tuple(info.options)}"
            )
        try:
            converted[name] = converter(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"bad value for {info.name} option {name}: {exc}"
            ) from None
    return replace(spec, options=tuple(sorted(converted.items())))


def build_store(spec: StoreSpec) -> ObjectStore:
    """Construct the store a spec describes (the only build path)."""
    spec = resolve_spec(spec)
    if spec.shards > 1:
        from repro.backends.sharded import ShardedStore
        from repro.disk.faults import FaultProfile

        profile = FaultProfile.parse(spec.faults) if spec.faults else None
        shards = [build_store(sub) for sub in spec.shard_specs()]
        return ShardedStore(shards, placement=spec.placement,
                            band_bytes=spec.band_bytes,
                            overlap=spec.overlap,
                            parallelism=spec.parallelism,
                            dispatch_overhead_s=spec.dispatch_overhead_s,
                            replicas=spec.replicas,
                            faults=profile,
                            rebuild_rate=spec.rebuild_rate,
                            rebalance_rate=spec.rebalance_rate,
                            checkpoint_rate=spec.checkpoint_rate,
                            queue=spec.queue,
                            queue_depth=spec.queue_depth,
                            arrival=spec.arrival)
    info = backend_info(spec.backend)
    device_faults = None
    if spec.faults:
        from repro.disk.faults import FaultProfile

        device_faults = FaultProfile.parse(spec.faults).device_faults()
    if device_faults is not None:
        from repro.disk.faults import FaultyBlockDevice

        device: BlockDevice = FaultyBlockDevice(
            scaled_disk(spec.volume_bytes), store_data=spec.store_data,
            policy=spec.policy, faults=device_faults)
    else:
        device = BlockDevice(scaled_disk(spec.volume_bytes),
                             store_data=spec.store_data, policy=spec.policy)
    return info.factory(spec, device)
