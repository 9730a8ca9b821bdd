"""The benchmark's output check.

It runs after the timed window and never reads a timing-bearing field
(``generation_seconds``, ``summary()["generation_time_s"]``, the
``X-Repro-*`` headers, the service ``info`` dict or traces). It has
three parts:

* invariants derived from the input specs alone — machine, server,
  client and manifest counts, every machine in exactly one client
  group within capacity, no fewer clients than the packing lower
  bound, each driver parameter the sources carry, and every manifest
  parsing back to the JSON config it embeds;
* differential checks, made by the workloads: an incremental result
  equals a cold compile of the same sources, a served payload equals
  the direct path's bytes;
* golden digests per workload, seed and op index, committed under
  ``perfbench/golden/`` (see ``make_golden.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else canonical(part))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def artifacts(result) -> dict:
    """The timing-free output of a generation result (or bundle)."""
    if isinstance(result, dict):
        inner = result["intermediate"]
        return {"machine_configs": inner["machine_configs"],
                "server_configs": inner["server_configs"],
                "client_configs": inner["client_configs"],
                "storage_configs": inner["storage_configs"],
                "manifests": result["manifests"]}
    return {"machine_configs": result.machine_configs,
            "server_configs": result.server_configs,
            "client_configs": result.client_configs,
            "storage_configs": result.storage_configs,
            "manifests": result.manifests}


def result_digest(result) -> str:
    return digest(artifacts(result))


def artifact_content(result, artifact: str):
    """The bytes-bearing object behind one provenance id."""
    kind, _, name = artifact.partition(":")
    if kind == "machine":
        return result.machine_configs[name]
    if kind == "server":
        return result.server_configs[name]
    if kind == "manifest":
        return result.manifests[name]
    if kind == "client":
        return next(c for c in result.client_configs if c["client"] == name)
    return next(c for c in result.storage_configs if c["historian"] == name)


# -- invariants from the input specs -------------------------------------------

def dns_label(name: str) -> str:
    """Kubernetes name rule, restated here so the check does not use the
    generator's own helper."""
    return re.sub(r"[^a-z0-9-]+", "-", name.lower()).strip("-")


def lower_bound(points: list[int], capacity: int) -> int:
    oversized = [p for p in points if p > capacity]
    rest = sum(points) - sum(oversized)
    return len(oversized) + math.ceil(rest / capacity)


def check_configuration(result, factory, *, manifests: bool = True
                        ) -> list[str]:
    """Errors of one generation output against its input *factory*
    (an :class:`inputs.Factory`); empty when every invariant holds.
    *manifests=False* skips the YAML round trip of every manifest."""
    out = artifacts(result)
    errors: list[str] = []
    specs = {spec.name: spec for spec in factory.specs}
    capacity = factory.capacity
    machines = out["machine_configs"]
    if set(machines) != set(specs):
        return [f"machines {sorted(set(machines) ^ set(specs))[:5]} "
                f"differ from the specs"]
    drivers = {}
    for name, config in machines.items():
        spec = specs[name]
        if config["workcell"] != spec.workcell:
            errors.append(f"{name}: workcell {config['workcell']}")
        points = len(config["variables"]) + len(config["methods"])
        if points != spec.point_count:
            errors.append(f"{name}: {points} points, spec has "
                          f"{spec.point_count}")
        drivers[config["driver"]["name"]] = config["driver"]["parameters"]
    for driver, (param, value) in factory.params.items():
        if drivers.get(driver, {}).get(param) != value:
            errors.append(f"{driver}: {param} is "
                          f"{drivers.get(driver, {}).get(param)!r}, "
                          f"sources say {value!r}")

    workcells: dict[str, set[str]] = {}
    for spec in factory.specs:
        workcells.setdefault(spec.workcell, set()).add(spec.name)
    servers = out["server_configs"]
    if set(servers) != set(workcells):
        errors.append(f"servers {sorted(servers)[:5]} != workcells")
    for workcell, config in servers.items():
        members = {m["machine"] for m in config["machines"]}
        if members != workcells.get(workcell):
            errors.append(f"server {workcell} serves {sorted(members)}")

    clients = out["client_configs"]
    seen: list[str] = []
    for client in clients:
        names = [m["machine"] for m in client["machines"]]
        seen += names
        points = sum(specs[n].point_count for n in names if n in specs)
        if client["assigned_points"] != points:
            errors.append(f"{client['client']}: assigned "
                          f"{client['assigned_points']} != {points}")
        if client["capacity"] != capacity:
            errors.append(f"{client['client']}: capacity "
                          f"{client['capacity']} != {capacity}")
        if points > capacity and not (client["oversized"]
                                      and len(names) == 1):
            errors.append(f"{client['client']}: {points} points over "
                          f"capacity {capacity}")
    if sorted(seen) != sorted(specs):
        errors.append("client groups do not cover every machine once")
    bound = lower_bound([s.point_count for s in factory.specs], capacity)
    if len(clients) < bound:
        errors.append(f"{len(clients)} clients < lower bound {bound}")
    storage = out["storage_configs"]
    pairs = [(s["paired_client"], s["machines"]) for s in storage]
    expected_pairs = [(c["client"], [m["machine"] for m in c["machines"]])
                      for c in clients]
    if pairs != expected_pairs:
        errors.append("historians do not pair one-to-one with clients")

    expected = {f"{dns_label(w)}-opcua-server.yaml": servers.get(w)
                for w in workcells}
    for number, (client, store) in enumerate(zip(clients, storage), 1):
        expected[f"opcua-client-{number:02d}.yaml"] = client
        expected[f"historian-{number:02d}.yaml"] = store
    if set(out["manifests"]) != set(expected):
        errors.append(f"manifests {sorted(set(out['manifests']) ^ set(expected))[:5]} "
                      f"unexpected or missing")
    elif manifests:
        errors += _check_manifests(out["manifests"], expected)
    return errors


def _check_manifests(manifests: dict[str, str], configs: dict) -> list[str]:
    from repro.yamlgen import YamlParseError, parse_documents
    errors = []
    for filename, text in manifests.items():
        try:
            documents = parse_documents(text)
        except YamlParseError as exc:
            errors.append(f"{filename}: does not parse: {exc}")
            continue
        maps = [d for d in documents if isinstance(d, dict)
                and d.get("kind") == "ConfigMap"]
        try:
            embedded = json.loads(maps[0]["data"]["config.json"])
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"{filename}: no embedded config ({exc!r})")
            continue
        if embedded != configs[filename]:
            errors.append(f"{filename}: embedded config differs from "
                          f"the JSON config")
    return errors


# -- golden digests -------------------------------------------------------------

def load_golden(workload: str, seed: int) -> list[str] | None:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def check_golden(workload: str, seed: int, digests: dict[int, str]
                 ) -> tuple[list[str], int]:
    """Compare per-op digests of a ×10 run with the committed ones;
    returns the errors and how many ops had a golden digest to meet."""
    golden = load_golden(workload, seed)
    if golden is None:
        return [], 0
    errors = [f"op {index}: digest {value} != golden {golden[index]}"
              for index, value in sorted(digests.items())
              if index < len(golden) and golden[index] != value]
    return errors, sum(1 for index in digests if index < len(golden))
