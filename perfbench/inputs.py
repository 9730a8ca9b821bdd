"""Seeded inputs of the workloads.

Everything the program sees comes from these generators, and each is a
pure function of the workload seed: equal seeds give equal inputs.
Alongside the SysML sources they return what the output check needs to
know about the inputs (machine specs, the driver parameter values the
sources carry), so the check never has to ask the program.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.icelab.model_gen import icelab_sources
from repro.machines.specs import ICE_LAB_SPECS
from repro.testkit.corpus import generate_scenario
from repro.testkit.scale import mega_factory_sources, mega_factory_specs

#: The first ``ip`` or ``endpoint`` redefinition of a driver instance.
_PARAM = re.compile(r"(:>> (ip|endpoint) = ')([^']*)(')")
_DRIVER_HEAD = re.compile(r"\s*part (\S+) :")

#: Options of the server the serve-mix workload starts (its defaults).
SERVER_OPTIONS = {"capacity": 120, "namespace": "factory"}
#: Concurrent closed-loop clients of serve-mix.
CLIENTS = 2
#: Request options of the variant factories: another tenant, so they
#: never share the ICE-lab requests' incremental engine.
VARIANT_OPTIONS = {"capacity": 40, "namespace": "variants"}


def _address(rng: random.Random) -> str:
    return (f"10.{rng.randrange(256)}.{rng.randrange(256)}."
            f"{rng.randrange(1, 255)}")


def _param_value(param: str, address: str) -> str:
    return address if param == "ip" else f"opc.tcp://{address}:4840"


@dataclass
class Factory:
    """One set of sources plus what the check knows about them."""

    sources: list[str]
    specs: list
    capacity: int
    #: driver instance name -> (parameter, value) the sources carry
    params: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: source index of each driver instance
    driver_files: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "Factory":
        return Factory(list(self.sources), self.specs, self.capacity,
                       dict(self.params), dict(self.driver_files))


def _index_drivers(factory: Factory) -> Factory:
    for index, text in enumerate(factory.sources):
        head = _DRIVER_HEAD.match(text)
        found = _PARAM.search(text)
        if head and head.group(1).endswith("DriverInstance") and found:
            factory.driver_files[head.group(1)] = index
            factory.params[head.group(1)] = (found.group(2), found.group(3))
    return factory


def fresh_address(rng: random.Random, factory: Factory, driver: str) -> str:
    """A seeded address that differs from the one *driver* has now, so
    the edit always changes the sources."""
    param, current = factory.params[driver]
    address = _address(rng)
    while _param_value(param, address) == current:
        address = _address(rng)
    return address


def set_param(factory: Factory, driver: str, address: str) -> str:
    """Point *driver* at *address*; returns the new parameter value."""
    index = factory.driver_files[driver]
    param, _ = factory.params[driver]
    value = _param_value(param, address)
    factory.sources[index] = _PARAM.sub(
        lambda m: m.group(1) + value + m.group(4), factory.sources[index],
        count=1)
    factory.params[driver] = (param, value)
    return value


def mega_factory(seed: int, scale: int) -> Factory:
    """The ×\\ *scale* mega factory, every driver re-addressed from
    *seed*, so each seed is a different factory of the same size."""
    rng = random.Random(f"factory/{seed}")
    factory = _index_drivers(Factory(mega_factory_sources(scale),
                                     mega_factory_specs(scale), 120))
    for driver in sorted(factory.params):
        set_param(factory, driver, _address(rng))
    return factory


def ice_lab() -> Factory:
    return _index_drivers(Factory(icelab_sources(), list(ICE_LAB_SPECS),
                                  SERVER_OPTIONS["capacity"]))


# -- edit-x10 -------------------------------------------------------------------

@dataclass(frozen=True)
class Edit:
    kind: str            # "param" or "comment"
    driver: str | None   # the edited driver instance ("param" edits)


class EditStream:
    """The ``repro watch`` loop's input: successive revisions of one
    factory. Each block of five edits holds four one-driver address
    changes and one comment-only edit, in seeded order."""

    def __init__(self, seed: int, factory: Factory):
        self.rng = random.Random(f"edit/{seed}")
        self.factory = factory
        self.drivers = sorted(factory.driver_files)
        self._block: list[str] = []

    def next(self, index: int) -> Edit:
        if not self._block:
            self._block = ["param"] * 4 + ["comment"]
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "comment":
            source = self.rng.randrange(1, len(self.factory.sources))
            self.factory.sources[source] += f"\n// revision note {index}\n"
            return Edit(kind, None)
        driver = self.rng.choice(self.drivers)
        set_param(self.factory, driver,
                  fresh_address(self.rng, self.factory, driver))
        return Edit(kind, driver)


# -- serve-mix ------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    index: int           # position in its client's stream
    kind: str            # "base", "repeat", "edit" or "variant"
    sources: tuple[str, ...]
    options: dict
    #: what the output check knows: specs, capacity, driver parameters
    factory: Factory
    #: position of the request whose content this one repeats
    origin: int


class RequestStream:
    """One client's served request mix, in order.

    Request 0 is the unedited ICE lab. After it come blocks of ten in
    seeded order: six exact repeats of one of the client's last eight
    requests (memo path), three one-driver edits of the client's copy
    of the ICE lab (incremental path) and one distinct
    ``generate_scenario`` factory from the default corpus (cold path).
    A closed-loop client has its earlier replies by the time it repeats
    them, so every repeat is a result-memo hit. Each client's ICE lab
    lives in its own namespace (``tenantN``), so the server keeps one
    warm incremental engine per client.
    """

    def __init__(self, seed: int, client: int):
        self.rng = random.Random(f"serve/{seed}/{client}")
        self.lab = ice_lab()
        self.options = {"namespace": f"tenant{client}"}
        self.requests: list[Request] = [
            Request(0, "base", tuple(self.lab.sources), self.options,
                    self.lab.copy(), 0)]
        self._block: list[str] = []

    def get(self, index: int) -> Request:
        while len(self.requests) <= index:
            self.requests.append(self._make(len(self.requests)))
        return self.requests[index]

    def _make(self, index: int) -> Request:
        if not self._block:
            self._block = ["repeat"] * 6 + ["edit"] * 3 + ["variant"]
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "repeat":
            earlier = self.requests[self.rng.randrange(max(0, index - 8),
                                                       index)]
            return Request(index, kind, earlier.sources, earlier.options,
                           earlier.factory, earlier.origin)
        if kind == "edit":
            driver = self.rng.choice(sorted(self.lab.driver_files))
            set_param(self.lab, driver,
                      fresh_address(self.rng, self.lab, driver))
            return Request(index, kind, tuple(self.lab.sources),
                           self.options, self.lab.copy(), index)
        scenario = generate_scenario(self.rng.randrange(1 << 30))
        factory = Factory(scenario.sources, scenario.specs,
                          VARIANT_OPTIONS["capacity"])
        return Request(index, kind, tuple(factory.sources),
                       dict(VARIANT_OPTIONS), factory, index)
