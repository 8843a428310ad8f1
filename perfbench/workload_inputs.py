"""Seeded inputs for the three workloads.

The program under test receives only what these functions write into
the work directory: netlist files (``oneshot``), an edit stream
(``eco``), and session sources plus a request schedule (``serve``).
Each writer also drops a ``manifest.json`` naming the files and the
sizes the workers need; :func:`digest` hashes the whole directory so
two runs can be shown to have used identical inputs.

Sizes are drawn log-uniform but stratified: one draw per equal slice of
the log range for each file kind, jittered inside the middle fifth of
its slice.  Every seed thus gets the same spread of small and large
modules of each kind, while the netlists themselves, their sizes within
a few percent, and the order of the files change with the seed.  That
keeps the tail percentiles comparable across seeds: flat Verilog parse
time grows with the square of the module size, so an unstratified draw
would let one seed's largest file set the p95.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: ``oneshot``: files per chip, and the share of each combinational
#: format.  A tenth of the files are sequential high-fanout modules,
#: written half as flat Verilog and half as BLIF.
ONESHOT_FILES = 64
ONESHOT_FORMATS = (("verilog", 0.30), ("hier", 0.20), ("blif", 0.30),
                   ("spice", 0.20))
SEQUENTIAL_SHARE = 0.10
GATE_RANGE = (50, 2000)
#: A sequential module of g gates has a clock and a reset net of fanout
#: g/2, and its estimate overflows (ROADMAP item 1) from about 615
#: gates on.  Over this range the three strata of each sequential kind
#: centre on about 354, 707 and 1414 gates, so the jittered sizes never
#: straddle that threshold: every seed has exactly 4 overflowing
#: modules of 64, and every run with the same work meets the same
#: failures.
SEQUENTIAL_GATE_RANGE = (250, 2000)
#: Devices per gate when a gate-level module is expanded to nMOS
#: transistors; SPICE decks are sized by transistor count.
TRANSISTORS_PER_GATE = 3.5

#: ``eco``: one module of this size, this many edits, this row sweep.
ECO_GATES = 2000
ECO_EDITS = 3000
ECO_ROWS = (4, 6, 8, 12, 16)
ECO_CHECKS = 30

#: ``serve``: sessions, their sizes, the rate ladder (requests/s), the
#: requests sent per ladder step and by the closed-loop phase, and the
#: request mix.
SERVE_SESSIONS = 8
SESSION_GATE_RANGE = (400, 2000)
BATCH_MODULES = 5
#: Sessionless modules are all about the same size, so their latencies
#: form one population whose middle the serve p95 falls in.
BATCH_GATE_RANGE = (56, 72)
LADDER = (16, 32, 64, 128, 256, 512, 1024)
#: The base step gives the latency percentiles, so it sends more.
BASE_STEP_REQUESTS = 200
STEP_REQUESTS = 100
SATURATION_REQUESTS = 80
#: Sessionless jobs are 10%, each batch module exactly twice per 100
#: requests.  They take 4-8 ms where session requests take about 2 ms;
#: at a 5% share the p95 would fall exactly on the edge between the two
#: populations and flip between them from run to run, while at 10% it
#: falls inside the sessionless jobs.
SERVE_MIX = (("estimate", 0.50), ("rows", 0.20), ("edit", 0.20),
             ("batch", 0.10))
SINGLE_ROWS = (None, 2, 3, 4, 6, 8, 12)
ROW_MENU = ((2, 3, 4), (3, 5), (4, 6, 8), (6, 8, 12, 16))

#: Cells the nMOS transistor expansion supports (all drive pin ``y``).
NMOS_MIX = (("INV", 3.0), ("NAND2", 4.0), ("NOR2", 3.0), ("NAND3", 1.5),
            ("AOI21", 1.0), ("AND2", 0.5), ("OR2", 0.5))
_PINS = {"INV": ("a",), "BUF": ("a",), "NAND2": ("a", "b"),
         "NOR2": ("a", "b"), "XOR2": ("a", "b"), "NAND3": ("a", "b", "c"),
         "AOI21": ("a", "b", "c")}
_COMBINATIONAL = (("NAND2", 4.0), ("NOR2", 3.0), ("INV", 3.0),
                  ("NAND3", 1.5), ("XOR2", 1.0), ("AOI21", 1.0))


def stratified_sizes(rng: random.Random, count: int,
                     low: int, high: int) -> List[int]:
    """``count`` log-uniform sizes in [low, high], one per stratum."""
    span = math.log(high / low)
    sizes = [
        round(low * math.exp(span * (k + 0.4 + 0.2 * rng.random()) / count))
        for k in range(count)
    ]
    rng.shuffle(sizes)
    return sizes


def _ports(gates: int) -> Tuple[int, int]:
    return max(3, gates // 40), max(2, gates // 60)


def sequential_module(name: str, gates: int, seed: int):
    """Random logic around ``gates // 2`` resettable flops that share one
    unbuffered clock net and one reset net, each of fanout ~gates/2."""
    from repro.netlist.builder import NetlistBuilder

    rng = random.Random(seed)
    flops = gates // 2
    inputs = [f"i{k}" for k in range(max(4, gates // 40))]
    outputs = [f"o{k}" for k in range(max(2, gates // 80))]
    builder = NetlistBuilder(name)
    builder.inputs("clk", "rst", *inputs)
    builder.outputs(*outputs)
    state = [f"q{k}" for k in range(flops)]
    live = inputs + state
    cells = [cell for cell, _ in _COMBINATIONAL]
    weights = [weight for _, weight in _COMBINATIONAL]
    logic = []
    for index in range(gates - flops - len(outputs)):
        cell = rng.choices(cells, weights)[0]
        window = live[-max(8, len(live) // 8):] if rng.random() < 0.8 else live
        pins = {pin: rng.choice(window) for pin in _PINS[cell]}
        net = f"n{index}"
        builder.gate(cell, f"g{index}", y=net, **pins)
        live.append(net)
        logic.append(net)
    for index, q in enumerate(state):
        builder.gate("DFFR", f"ff{index}", d=rng.choice(logic), ck="clk",
                     r="rst", q=q)
    for index, out in enumerate(outputs):
        builder.gate("BUF", f"ob{index}", a=rng.choice(logic), y=out)
    return builder.build()


def _netlist_text(kind: str, name: str, size: int, seed: int) -> str:
    """One module of ``size`` devices, rendered in the file format of
    ``kind``."""
    from repro.netlist.writers import write_blif, write_spice, write_verilog
    from repro.workloads.designs import generate_design
    from repro.workloads.generators import (
        expand_to_transistors,
        random_gate_module,
    )

    if kind in ("seq-verilog", "seq-blif"):
        module = sequential_module(name, size, seed)
        return (write_verilog if kind == "seq-verilog" else write_blif)(module)
    if kind == "hier":
        design = generate_design(max(2, round(size / 16)), seed=seed,
                                 name=name)
        modules = list(design.leaves) + list(design.blocks) + [design.top]
        return "\n".join(write_verilog(module) for module in modules)
    if kind == "spice":
        gates = max(4, round(size / TRANSISTORS_PER_GATE))
        inputs, outputs = _ports(gates)
        logic = random_gate_module(f"{name}_g", gates, inputs, outputs,
                                   seed=seed, cell_mix=NMOS_MIX)
        return write_spice(expand_to_transistors(logic, name=name))
    inputs, outputs = _ports(size)
    module = random_gate_module(name, size, inputs, outputs, seed=seed)
    return (write_verilog if kind == "verilog" else write_blif)(module)


_SUFFIX = {"verilog": ".v", "hier": ".v", "seq-verilog": ".v",
           "blif": ".blif", "seq-blif": ".blif", "spice": ".sp"}


def _split(count: int, shares: Sequence[Tuple[str, float]]) -> List[str]:
    """``count`` kinds in the given shares (largest remainders)."""
    exact = [(kind, share * count) for kind, share in shares]
    counts = {kind: int(value) for kind, value in exact}
    leftover = count - sum(counts.values())
    by_remainder = sorted(exact, key=lambda kv: int(kv[1]) - kv[1])
    for kind, _ in by_remainder[:leftover]:
        counts[kind] += 1
    return [kind for kind, _ in shares for _ in range(counts[kind])]


def write_oneshot(work: Path, seed: int) -> dict:
    rng = random.Random(f"oneshot:{seed}")
    sequential = round(SEQUENTIAL_SHARE * ONESHOT_FILES)
    kinds = (_split(sequential, (("seq-verilog", 0.5), ("seq-blif", 0.5)))
             + _split(ONESHOT_FILES - sequential, ONESHOT_FORMATS))
    plan: List[Tuple[str, int]] = []
    for kind in dict.fromkeys(kinds):
        sizes = SEQUENTIAL_GATE_RANGE if kind.startswith("seq") else GATE_RANGE
        plan.extend((kind, size) for size in
                    stratified_sizes(rng, kinds.count(kind), *sizes))
    rng.shuffle(plan)

    files = []
    for index, (kind, size) in enumerate(plan):
        name = f"m{index:03d}"
        path = f"{index:03d}_{kind}{_SUFFIX[kind]}"
        (work / path).write_text(
            _netlist_text(kind, name, size, rng.randrange(1 << 30))
        )
        files.append({"path": path, "kind": kind, "size": size})
    warmup = []
    for kind in ("verilog", "hier", "blif", "spice"):
        path = f"warmup_{kind}{_SUFFIX[kind]}"
        (work / path).write_text(
            _netlist_text(kind, f"w_{kind}", 80, rng.randrange(1 << 30))
        )
        warmup.append(path)
    checks = sorted(rng.sample(range(len(files)), max(4, len(files) // 8)))
    return {"files": files, "warmup": warmup, "checks": checks}


def write_eco(work: Path, seed: int) -> dict:
    from repro.incremental.editgen import generate_edit_sequence
    from repro.incremental.mutations import save_mutations
    from repro.netlist.writers import write_verilog

    rng = random.Random(f"eco:{seed}")
    inputs, outputs = _ports(ECO_GATES)
    module_spec = {"name": "eco", "gates": ECO_GATES, "inputs": inputs,
                   "outputs": outputs, "seed": rng.randrange(1 << 30)}
    module = eco_module(module_spec)
    (work / "eco.v").write_text(write_verilog(module))
    edits = generate_edit_sequence(module, ECO_EDITS,
                                   seed=rng.randrange(1 << 30))
    save_mutations(str(work / "edits.json"), edits)
    checks = sorted(rng.sample(range(ECO_EDITS), ECO_CHECKS))
    return {"module": module_spec, "edits": "edits.json",
            "rows": list(ECO_ROWS), "checks": checks}


def eco_module(spec: dict):
    """The module a ``{name, gates, inputs, outputs, seed}`` spec names."""
    from repro.workloads.generators import random_gate_module

    return random_gate_module(spec["name"], spec["gates"], spec["inputs"],
                              spec["outputs"], seed=spec["seed"])


def write_serve(work: Path, seed: int) -> dict:
    from repro.incremental.editgen import generate_edit_sequence
    from repro.incremental.mutations import save_mutations
    from repro.netlist.writers import write_verilog

    rng = random.Random(f"serve:{seed}")
    sessions = []
    for index, gates in enumerate(
        stratified_sizes(rng, SERVE_SESSIONS, *SESSION_GATE_RANGE)
    ):
        inputs, outputs = _ports(gates)
        spec = {"name": f"s{index}", "gates": gates, "inputs": inputs,
                "outputs": outputs, "seed": rng.randrange(1 << 30)}
        path = f"session_{index}.v"
        (work / path).write_text(write_verilog(eco_module(spec)))
        sessions.append({"module": spec, "source": path})
    batch = []
    for index, gates in enumerate(
        stratified_sizes(rng, BATCH_MODULES, *BATCH_GATE_RANGE)
    ):
        inputs, outputs = _ports(gates)
        spec = {"name": f"b{index}", "gates": gates, "inputs": inputs,
                "outputs": outputs, "seed": rng.randrange(1 << 30)}
        path = f"batch_{index}.v"
        (work / path).write_text(write_verilog(eco_module(spec)))
        batch.append(path)

    edit_counts = [0] * SERVE_SESSIONS

    def block(count: int) -> List[dict]:
        """``count`` requests in the exact mix, each kind spread evenly
        over the sessions (or batch modules), in seeded order."""
        entries = []
        kinds = _split(count, SERVE_MIX)
        for kind in dict.fromkeys(kinds):
            targets: List[int] = []
            pool = BATCH_MODULES if kind == "batch" else SERVE_SESSIONS
            while len(targets) < kinds.count(kind):
                targets.extend(rng.sample(range(pool), pool))
            for target in targets[:kinds.count(kind)]:
                if kind == "batch":
                    entries.append({"kind": kind, "batch": target})
                elif kind == "estimate":
                    entries.append({"kind": kind, "session": target,
                                    "rows": rng.choice(SINGLE_ROWS)})
                elif kind == "rows":
                    entries.append({"kind": kind, "session": target,
                                    "rows": list(rng.choice(ROW_MENU))})
                else:
                    entries.append({"kind": kind, "session": target})
        rng.shuffle(entries)
        for entry in entries:
            if entry["kind"] == "edit":
                entry["edit"] = edit_counts[entry["session"]]
                edit_counts[entry["session"]] += 1
        return entries

    # The closed-loop phase runs first, so the ladder (which stops at
    # its first failing step) never strands edits a later phase needs.
    saturation = block(SATURATION_REQUESTS)
    ladder = [block(BASE_STEP_REQUESTS if index == 0 else STEP_REQUESTS)
              for index in range(len(LADDER))]
    for index, session in enumerate(sessions):
        path = f"edits_{index}.json"
        save_mutations(str(work / path), generate_edit_sequence(
            eco_module(session["module"]), edit_counts[index],
            seed=rng.randrange(1 << 30),
        ))
        session["edits"] = path
    return {"sessions": sessions, "batch": batch, "saturation": saturation,
            "ladder": [{"rate": rate, "requests": step}
                       for rate, step in zip(LADDER, ladder)]}


WRITERS = {"oneshot": write_oneshot, "eco": write_eco, "serve": write_serve}


def write_inputs(workload: str, work: Path, seed: int) -> Dict:
    """Write the seeded inputs of ``workload`` into ``work`` and return
    its manifest (also saved as ``manifest.json``)."""
    work.mkdir(parents=True, exist_ok=True)
    manifest = WRITERS[workload](work, seed)
    manifest["workload"] = workload
    manifest["seed"] = seed
    (work / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    )
    return manifest


def digest(work: Path) -> str:
    """SHA-256 over every input file's name and bytes, in name order."""
    hasher = hashlib.sha256()
    for path in sorted(work.iterdir()):
        if path.is_file():
            hasher.update(path.name.encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()
