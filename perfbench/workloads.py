"""Seeded request plans and their reference outputs.

Every workload is a pure function of its seed: the same seed yields a
byte-identical sequence of HTTP requests, and the server only ever sees
those bytes.  Expected responses are computed here, in the benchmark
process, from the same generated process texts:

* pair verdicts with the eager oracle (``afsa/oracle.eager_pair_verdict``);
* witness texts with ``eager_pair_witness(...).describe()`` on the
  operands in the route's order — ``view(right, on=left)`` then
  ``view(left, on=right)``;
* Def. 5/6 classification strings from eager unannotated differences
  plus the oracle's annotated intersection (never an injector's
  category label: bounding a loop is variant only on the side that
  answers it);
* ``/migrate`` counts from ``classify_trace_reference`` over the fleet
  regenerated locally with the same seed and ``distinct``.

A workload hands the client loop *units*: a unit is a list of calls
whose responses are verified together after the run (an evolution
lifecycle, a fan-out iteration, or one hot-path request).  Counters in
responses (cache hits, chunks, arena traffic) are never compared.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.afsa.difference import difference
from repro.afsa.emptiness import is_empty
from repro.afsa.kernel import kernel_of
from repro.afsa.oracle import eager_pair_verdict, eager_pair_witness
from repro.afsa.view import project_view
from repro.bpel.compile import compile_process
from repro.bpel.dsl import process_from_dsl, process_to_dsl
from repro.errors import ChangeError
from repro.instances.migrate import classify_trace_reference
from repro.instances.store import InstanceStore
from repro.scenario.procurement import accounting_private_variant_change
from repro.workload.fleet import generate_fleet
from repro.workload.generator import generate_choreography, generate_partner_pair
from repro.workload.mutations import (
    inject_invariant_additive,
    inject_variant_additive,
    inject_variant_subtractive,
    random_change,
)

PROCESSES = Path(__file__).resolve().parent.parent / "examples" / "processes"

#: Per-second caps on how many lifecycles / iterations one connection
#: could need (about twice the rates measured on a 2-vCPU box, so a
#: faster server still finds work until the deadline); plans are
#: generated up front so generation never runs inside the measured
#: phase.
EVOLVE_UNITS_PER_S = 60
FANOUT_UNITS_PER_S = 6


def _rng(seed: int, *labels) -> random.Random:
    """A generator private to (seed, labels): string seeds hash through
    SHA-512, so streams are stable across processes and hash seeds."""
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def _paper_text(name: str) -> str:
    return (PROCESSES / name).read_text(encoding="utf-8")


def _canonical(model) -> tuple:
    """DSL text of *model* and the model parsed back from it — the
    server and the reference both start from exactly that text."""
    text = process_to_dsl(model)
    return text, process_from_dsl(text)


# -- HTTP calls ---------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One HTTP request: its latency family, route and wire bytes."""

    kind: str
    method: str
    path: str
    wire: bytes

    @classmethod
    def make(cls, kind: str, method: str, path: str, body=None) -> "Call":
        payload = b"" if body is None else json.dumps(
            body, sort_keys=True
        ).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("latin-1")
        return cls(kind, method, path, head + payload)


def _tenant_call(tenant: str) -> Call:
    # The choreography quota sits far above any residency cap: with the
    # default quota of 16 the service answers 429 long before eviction.
    return Call.make(
        "tenant", "POST", "/tenants",
        {"tenant": tenant, "max_choreographies": 1_000_000,
         "max_inflight": 64},
    )


def _register_call(tenant: str, name: str, texts: list) -> Call:
    return Call.make(
        "register", "POST", "/choreographies",
        {"tenant": tenant, "name": name, "processes": texts},
    )


def _check_call(kind, tenant, name, left, right, witness=False) -> Call:
    body = {"tenant": tenant, "choreography": name,
            "left": left, "right": right}
    if witness:
        body["witness"] = True
    return Call.make(kind, "POST", "/check", body)


# -- the local reference ------------------------------------------------------


class Reference:
    """One choreography compiled locally from the texts sent to the
    server, with eager-oracle answers to the questions the routes ask."""

    def __init__(self, texts: list):
        models = [process_from_dsl(text) for text in texts]
        self.names = {model.party: model.name for model in models}
        self.public = {
            model.party: compile_process(model).afsa for model in models
        }

    def parties(self) -> list:
        return sorted(self.public)

    def partners(self, party: str) -> list:
        return sorted(
            name for name in self.public[party].alphabet.partners()
            if name != party and name in self.public
        )

    def pairs(self) -> list:
        parties = self.parties()
        return [
            [left, right]
            for index, left in enumerate(parties)
            for right in parties[index + 1:]
            if right in self.partners(left)
        ]

    def _operands(self, left: str, right: str) -> tuple:
        return (
            kernel_of(project_view(self.public[left], right)),
            kernel_of(project_view(self.public[right], left)),
        )

    def verdict(self, left: str, right: str) -> bool:
        return eager_pair_verdict(*self._operands(left, right))

    def witness(self, left: str, right: str) -> str:
        return eager_pair_witness(*self._operands(left, right)).describe()

    def check_response(self, left, right, witness=False) -> dict:
        return {
            "left": left,
            "right": right,
            "consistent": self.verdict(left, right),
            "witness": self.witness(left, right) if witness else None,
        }

    def register_response(self, tenant: str, name: str) -> dict:
        return {
            "tenant": tenant,
            "choreography": name,
            "parties": self.parties(),
            "conversing_pairs": self.pairs(),
            "replaced": False,
        }


def _framework(old, new) -> str:
    """The Def. 5 verdict from eager unannotated differences."""
    additive = not is_empty(difference(new, old), annotated=False)
    subtractive = not is_empty(difference(old, new), annotated=False)
    if additive and subtractive:
        return "additive+subtractive"
    if additive:
        return "additive"
    if subtractive:
        return "subtractive"
    return "neutral"


def _annotation_signature(afsa) -> set:
    return {(state, str(formula)) for state, formula in afsa.annotations.items()}


def evolve_reference(before: Reference, party: str, new_text: str) -> dict:
    """The checkable part of a ``/evolve`` response (Fig. 4 step):
    whether the public process changed, and the Def. 5/6 verdict
    against each conversation partner."""
    old_public = before.public[party]
    new_public = compile_process(process_from_dsl(new_text)).afsa
    changed = not (
        _framework(old_public, new_public) == "neutral"
        and _annotation_signature(old_public)
        == _annotation_signature(new_public)
    )
    impacts = []
    for other in before.partners(party) if changed else ():
        new_view = project_view(new_public, other)
        variant = not eager_pair_verdict(
            kernel_of(new_view),
            kernel_of(project_view(before.public[other], party)),
        )
        framework = _framework(project_view(old_public, other), new_view)
        impacts.append({
            "party": other,
            "partner": before.names[other],
            "classification": (
                f"{framework} / {'variant' if variant else 'invariant'} "
                f"/ w.r.t. {other}"
            ),
            "requires_propagation": variant,
        })
    return {
        "party": party,
        "public_changed": changed,
        "requires_propagation": any(
            impact["requires_propagation"] for impact in impacts
        ),
        "impacts": impacts,
        "old_version": f"{party}#v1",
    }


# -- verification -------------------------------------------------------------


def _decode(status: int, body: bytes):
    if status != 200:
        return None, f"HTTP {status}: {body[:200]!r}"
    try:
        return json.loads(body), None
    except ValueError as error:
        return None, f"undecodable body ({error})"


def _diff(label: str, got, want):
    if got == want:
        return None
    return f"{label}: got {got!r}, expected {want!r}"


@dataclass(eq=False)
class Unit:
    """A group of calls verified together once the run is over.

    :attr:`expected` is either a list of expected field dicts (one per
    call; ``None`` accepts any 200) or a callable doing the comparison
    itself.
    """

    calls: list
    expected: object = None
    label: str = ""

    def verify(self, responses: list) -> list:
        """Errors, each naming its request, for *responses* — a list of
        ``(status, body bytes)`` aligned with :attr:`calls`."""
        if len(responses) != len(self.calls):
            return [f"{self.label}: {len(responses)} of "
                    f"{len(self.calls)} responses"]
        if callable(self.expected):
            return self.expected(self, responses)
        return expect_fields(self, responses, self.expected)


def expect_fields(unit: Unit, responses, expected, offset: int = 0) -> list:
    """Compare decoded responses field by field with expected dicts."""
    errors = []
    for index, ((status, body), want) in enumerate(
        zip(responses, expected), offset
    ):
        call = unit.calls[index]
        got, error = _decode(status, body)
        where = f"{unit.label} #{index} {call.method} {call.path}"
        if error:
            errors.append(f"{where}: {error}")
        elif want is not None:
            for key, value in want.items():
                problem = _diff(f"{where} field {key!r}", got.get(key), value)
                if problem:
                    errors.append(problem)
    return errors


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Latency:
    """One reported latency: the ``BENCHMARK.json`` metric it feeds
    (``None``: printed only), the workload-specific name it is printed
    under, the call kinds it pools and the quantile."""

    metric: str | None
    name: str
    kinds: tuple
    quantile: float


@dataclass
class Workload:
    """A seeded workload: set-up units, per-connection unit streams,
    the server options it needs and the latencies it reports.

    The generic metrics ``main_p50_ms``, ``main_tail_ms``,
    ``aux_p50_ms`` and ``aux2_p50_ms`` are mapped by :attr:`latencies`
    onto the workload's own requests.  The gated tail keeps at least
    ten samples beyond it at the run length the benchmark is tuned for,
    and is the steadiest such quantile across seeds; latencies without
    a metric are printed only.
    """

    name: str
    seed: int
    connections: int
    latencies: tuple = ()
    server_args: list = field(default_factory=list)

    def setup_units(self) -> list:
        raise NotImplementedError

    def units(self, connection: int, seconds: float):
        raise NotImplementedError

    def main_kinds(self) -> tuple:
        """The call kinds of the workload's main request."""
        return next(
            latency.kinds for latency in self.latencies
            if latency.metric == "main_p50_ms"
        )


class CheckHot(Workload):
    """Cache-resident ``/check`` traffic over 8 tenants.

    Tenant 0 holds the paper's procurement choreography, tenant 1 the
    Fig. 16b copy with ``accounting_subtractive.proc`` left unadapted,
    tenants 2–7 seeded hub-and-spoke choreographies.  Set-up checks
    every pair once with and once without a witness, so every measured
    verdict is a cache hit: HTTP, admission, coalescing, the
    engine-thread hop and JSON carry the cost.  Pair popularity is
    Zipf-skewed; ~10% of the requests are ``/healthz``.
    """

    TENANTS = 8
    HEALTHZ_SHARE = 0.1
    WITNESS_SHARE = 0.15
    ZIPF = 1.1

    def __init__(self, seed: int):
        checks = ("check", "check_witness")
        super().__init__(
            "check-hot", seed, connections=2,
            latencies=(
                Latency("main_p50_ms", "check_p50_ms", checks, 0.5),
                Latency("main_tail_ms", "check_p95_ms", checks, 0.95),
                Latency(None, "check_p99_ms", checks, 0.99),
                Latency("aux_p50_ms", "healthz_p50_ms", ("healthz",), 0.5),
                Latency("aux2_p50_ms", "check_witness_p50_ms",
                        ("check_witness",), 0.5),
            ),
            server_args=["--max-resident", "64"],
        )
        paper = [_paper_text(f"{name}.proc")
                 for name in ("buyer", "accounting", "logistics")]
        self.choreographies = [
            ("tenant-0", "procurement", paper),
            ("tenant-1", "procurement-16b",
             [paper[0], _paper_text("accounting_subtractive.proc"),
              paper[2]]),
        ]
        rng = _rng(seed, "check-hot", "shapes")
        for index in range(2, self.TENANTS):
            choreography = generate_choreography(
                seed=rng.randrange(1 << 30),
                spokes=rng.randint(3, 6),
                steps=rng.choice((4, 6, 8)),
            )
            texts = [
                process_to_dsl(choreography.private(party))
                for party in choreography.parties()
            ]
            self.choreographies.append(
                (f"tenant-{index}", f"hub-{index}", texts)
            )
        self.references = {
            name: Reference(texts) for _, name, texts in self.choreographies
        }
        keys = [
            (tenant, name, left, right)
            for tenant, name, _ in self.choreographies
            for left, right in self.references[name].pairs()
        ]
        _rng(seed, "check-hot", "popularity").shuffle(keys)
        self.keys = keys
        self.cum_weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** self.ZIPF for rank in range(len(keys))
        ))
        self._units = {
            (key, witness): self._check_unit(key, witness)
            for key in keys for witness in (False, True)
        }

    def _check_unit(self, key, witness: bool) -> Unit:
        tenant, name, left, right = key
        kind = "check_witness" if witness else "check"
        return Unit(
            [_check_call(kind, tenant, name, left, right, witness)],
            [self.references[name].check_response(left, right, witness)],
            f"check {name} {left}-{right} witness={witness}",
        )

    def setup_units(self) -> list:
        calls = [_tenant_call(f"tenant-{index}")
                 for index in range(self.TENANTS)]
        expected = [None] * len(calls)
        for tenant, name, texts in self.choreographies:
            calls.append(_register_call(tenant, name, texts))
            expected.append(
                self.references[name].register_response(tenant, name)
            )
        return [Unit(calls, expected, "set-up"), *self._units.values()]

    def units(self, connection: int, seconds: float):
        rng = _rng(self.seed, "check-hot", "connection", connection)
        healthz = Unit(
            [Call.make("healthz", "GET", "/healthz")],
            [{"status": "ok"}], "healthz",
        )
        while True:
            if rng.random() < self.HEALTHZ_SHARE:
                yield healthz
            else:
                key = rng.choices(self.keys, cum_weights=self.cum_weights)[0]
                yield self._units[(key, rng.random() < self.WITNESS_SHARE)]


#: The three change patterns of the paper (Figs. 9, 11, 15).
INJECTORS = (
    inject_invariant_additive,
    inject_variant_additive,
    inject_variant_subtractive,
)


@dataclass
class Lifecycle:
    """One evolution lifecycle: register, cold check, evolve, check."""

    name: str
    texts: list
    party: str
    new_text: str
    left: str
    right: str


class EvolveLifecycle(Workload):
    """Register → cold ``/check`` → ``/evolve`` (auto-adapt, commit) →
    ``/check``, over fresh generated partner pairs, one connection.

    The change is one of the paper's three patterns, cycled together
    with the step count so every run sees the same mix; every tenth
    lifecycle is instead the paper's own Sect. 5.2 or 5.3 accounting
    change on the procurement choreography.  The residency cap is far
    below the number of lifecycles, so old choreographies are evicted
    while later ones register and check.

    One connection, not two: all of this work runs on the service's
    single engine thread, so a second connection adds no throughput
    (about 105 lifecycle requests/s either way on a 2-vCPU box) but
    makes every latency include a wait for the other connection's
    request: over five seeds that raised the run-to-run spread
    (interquartile range over median) of the evolve p50 from 0.06 to
    0.22 and of its p90 from 0.12 to 0.27.
    """

    STEPS = (8, 12, 16, 24)
    PAPER_STRIDE = 10
    WARMUP = 4

    def __init__(self, seed: int):
        super().__init__(
            "evolve-lifecycle", seed, connections=1,
            latencies=(
                Latency("main_p50_ms", "evolve_p50_ms", ("evolve",), 0.5),
                Latency("main_tail_ms", "evolve_p90_ms", ("evolve",), 0.9),
                Latency("aux_p50_ms", "register_p50_ms", ("register",), 0.5),
                Latency("aux2_p50_ms", "check_cold_p50_ms",
                        ("check_cold",), 0.5),
            ),
            server_args=["--max-resident", "24"],
        )
        self._paper = [_paper_text(f"{name}.proc")
                       for name in ("buyer", "accounting", "logistics")]
        self._paper_changes = (
            _canonical(accounting_private_variant_change())[0],
            _paper_text("accounting_subtractive.proc"),
        )
        self._plans: dict = {}
        self._expected: dict = {}

    def lifecycle(self, stream: str, index: int) -> Lifecycle:
        name = f"{stream}-{index}"
        if index % self.PAPER_STRIDE == self.PAPER_STRIDE - 1:
            change = self._paper_changes[(index // self.PAPER_STRIDE) % 2]
            return Lifecycle(name, self._paper, "A", change, "A", "B")
        rng = _rng(self.seed, "evolve", stream, index)
        steps = self.STEPS[index % len(self.STEPS)]
        first = (index // len(self.STEPS)) % len(INJECTORS)
        pair = generate_partner_pair(
            seed=rng.randrange(1 << 30), steps=steps, with_loop=True
        )
        parsed = {model.party: _canonical(model) for model in pair}
        parties = sorted(parsed)
        rng.shuffle(parties)
        for offset in range(len(INJECTORS)):
            injector = INJECTORS[(first + offset) % len(INJECTORS)]
            for party in parties:
                try:
                    change, _ = injector(
                        parsed[party][1], seed=rng.randrange(1 << 30)
                    )
                except ChangeError:
                    continue
                new_text, _ = _canonical(change.apply(parsed[party][1]))
                return Lifecycle(
                    name, [parsed["I"][0], parsed["R"][0]],
                    party, new_text, "I", "R",
                )
        raise ChangeError(f"no change pattern applies to {name}")

    def expected(self, tenant: str, lifecycle: Lifecycle) -> dict:
        """Reference answers for one lifecycle (memoized: set-ups and
        a traced run replay the same lifecycles)."""
        key = (tenant, lifecycle.name)
        if key not in self._expected:
            before = Reference(lifecycle.texts)
            self._expected[key] = {
                "register": before.register_response(tenant, lifecycle.name),
                "cold": before.check_response(lifecycle.left, lifecycle.right),
                "evolve": evolve_reference(
                    before, lifecycle.party, lifecycle.new_text
                ),
            }
        return self._expected[key]

    def verify_lifecycle(self, unit, responses, tenant, lifecycle) -> list:
        want = self.expected(tenant, lifecycle)
        errors = expect_fields(
            unit, responses[:2], [want["register"], want["cold"]]
        )
        where = f"{unit.label} #2 POST /evolve"
        evolve, error = _decode(*responses[2])
        if error:
            return errors + [f"{where}: {error}"]
        impacts = [
            {key: impact.get(key) for key in (
                "party", "partner", "classification", "requires_propagation")}
            for impact in evolve.get("impacts", [])
        ]
        problems = [_diff(f"{where} impacts", impacts, want["evolve"]["impacts"])]
        for key in ("party", "public_changed", "requires_propagation",
                    "old_version"):
            problems.append(_diff(
                f"{where} field {key!r}", evolve.get(key), want["evolve"][key]
            ))
        # Commit rule: a step commits exactly when every variant partner
        # was adapted back to consistency; a committed step bumps the
        # version and leaves the pair consistent, an uncommitted one
        # leaves both untouched.
        adapted = all(
            impact.get("consistent_after_adaptation")
            for impact in evolve.get("impacts", [])
            if impact.get("requires_propagation")
        )
        committed = evolve.get("committed")
        problems.append(_diff(f"{where} field 'committed'", committed, adapted))
        version = evolve.get("new_version")
        problems.append(_diff(
            f"{where} field 'new_version'", version,
            f"{lifecycle.party}#v2" if committed else want["evolve"]["old_version"],
        ))
        errors += [problem for problem in problems if problem]
        post = dict(want["cold"], consistent=True) if committed else want["cold"]
        return errors + expect_fields(unit, responses[3:], [post], offset=3)

    def _unit(self, tenant: str, lifecycle: Lifecycle) -> Unit:
        calls = [
            _register_call(tenant, lifecycle.name, lifecycle.texts),
            _check_call("check_cold", tenant, lifecycle.name,
                        lifecycle.left, lifecycle.right),
            Call.make("evolve", "POST", "/evolve", {
                "tenant": tenant, "choreography": lifecycle.name,
                "party": lifecycle.party,
                "process": {"text": lifecycle.new_text, "format": "dsl"},
                "auto_adapt": True, "commit": True,
            }),
            _check_call("check_post", tenant, lifecycle.name,
                        lifecycle.left, lifecycle.right),
        ]
        return Unit(
            calls,
            lambda unit, responses: self.verify_lifecycle(
                unit, responses, tenant, lifecycle
            ),
            f"lifecycle {lifecycle.name}",
        )

    def setup_units(self) -> list:
        tenants = [f"tenant-{index}" for index in range(self.connections)]
        units = [Unit([_tenant_call(tenant) for tenant in tenants],
                      [None] * len(tenants), "set-up")]
        for index in range(self.WARMUP):
            units.append(self._unit(
                tenants[index % len(tenants)], self.lifecycle("warm", index)
            ))
        return units

    def plan(self, connection: int, seconds: float) -> list:
        """The lifecycles *connection* walks: its share of the seeded
        list, generated once up front."""
        budget = max(8, int(seconds * EVOLVE_UNITS_PER_S))
        key = (connection, budget)
        if key not in self._plans:
            self._plans[key] = [
                self.lifecycle("lc", index)
                for index in range(connection, budget, self.connections)
            ]
        return self._plans[key]

    def units(self, connection: int, seconds: float):
        tenant = f"tenant-{connection}"
        return [self._unit(tenant, lifecycle)
                for lifecycle in self.plan(connection, seconds)]


@dataclass
class Iteration:
    """One fan-out iteration: register, sweep, fleet, migrate."""

    name: str
    texts: list
    changed_hub: str
    fleet_seed: int


class Fanout(Workload):
    """Fresh hub-and-spoke choreographies (16–31 spokes) through the
    persistent runtime: ``/sweep`` and ``/migrate`` with 2 workers.

    A few spokes carry an unadapted variant change, so some pairs are
    inconsistent and the sweep extracts witnesses for them; ``/fleet``
    spawns thousands of hub instances from tens of base traces, and
    ``/migrate`` classifies them against a changed hub.
    """

    TENANT = "tenant-0"
    INSTANCES = 2000
    DISTINCT = 24
    VARIANT_SPOKES = 2
    WORKERS = 2

    def __init__(self, seed: int):
        super().__init__(
            "fanout", seed, connections=1,
            latencies=(
                Latency("main_p50_ms", "sweep_p50_ms", ("sweep",), 0.5),
                Latency("main_tail_ms", "sweep_p75_ms", ("sweep",), 0.75),
                Latency(None, "sweep_p90_ms", ("sweep",), 0.9),
                Latency("aux_p50_ms", "migrate_p50_ms", ("migrate",), 0.5),
                Latency("aux2_p50_ms", "register_p50_ms", ("register",), 0.5),
            ),
            server_args=["--max-resident", "4"],
        )
        self._plans: dict = {}
        self._expected: dict = {}

    def iteration(self, stream: str, index: int) -> Iteration:
        rng = _rng(self.seed, "fanout", stream, index)
        # Cycle through every spoke count in a seed-independent order,
        # so runs of equal length see the same mix of grid sizes.
        spokes = 16 + (index * 5) % 16
        choreography = generate_choreography(
            seed=rng.randrange(1 << 30), spokes=spokes, steps=4
        )
        texts, models = {}, {}
        for party in choreography.parties():
            texts[party], models[party] = _canonical(
                choreography.private(party)
            )
        spokes_order = [party for party in sorted(texts) if party != "H"]
        rng.shuffle(spokes_order)
        changed = 0
        for party in spokes_order:
            if changed == self.VARIANT_SPOKES:
                break
            try:
                change, _ = inject_variant_additive(
                    models[party], seed=rng.randrange(1 << 30)
                )
            except ChangeError:
                continue
            texts[party], models[party] = _canonical(
                change.apply(models[party])
            )
            changed += 1
        _, change, _ = random_change(models["H"], seed=rng.randrange(1 << 30))
        return Iteration(
            f"{stream}-{index}",
            [texts[party] for party in sorted(texts)],
            _canonical(change.apply(models["H"]))[0],
            rng.randrange(1 << 30),
        )

    def expected(self, iteration: Iteration) -> dict:
        """Reference answers for one iteration (memoized).

        The fleet generator picks a divergent message by label id, and
        label ids are numbered in first-compile order per process.  The
        reference therefore compiles each iteration's processes in the
        order the server does (registration, then the changed hub), and
        iterations are verified in the order the server handled them.
        """
        if iteration.name in self._expected:
            return self._expected[iteration.name]
        reference = Reference(iteration.texts)
        outcomes = {}
        for left, right in reference.pairs():
            consistent = reference.verdict(left, right)
            outcomes[(left, right)] = (
                consistent,
                None if consistent else reference.witness(left, right),
            )
        store = generate_fleet(
            reference.public["H"], self.INSTANCES,
            seed=iteration.fleet_seed, version="H#v1",
            distinct=self.DISTINCT,
        )
        changed_hub = compile_process(
            process_from_dsl(iteration.changed_hub)
        ).afsa
        counts: dict = {}
        for records in store.classes(version="H#v1").values():
            verdict = classify_trace_reference(
                changed_hub, InstanceStore.trace_texts(records[0])
            )
            counts[verdict] = counts.get(verdict, 0) + len(records)
        failures = sum(1 for ok, _ in outcomes.values() if not ok)
        result = self._expected[iteration.name] = {
            "register": reference.register_response(
                self.TENANT, iteration.name
            ),
            "outcomes": outcomes,
            "sweep": {"consistent": failures == 0, "pairs": len(outcomes),
                      "failures": failures, "undecided": 0},
            "fleet": {"party": "H", "version": "H#v1",
                      "spawned": self.INSTANCES,
                      "instances": self.INSTANCES},
            "migrate": {"party": "H", "version": "H#v1",
                        "instances": self.INSTANCES, "counts": counts},
        }
        return result

    def verify_iteration(self, unit, responses, iteration) -> list:
        want = self.expected(iteration)
        errors = expect_fields(unit, responses, [
            want["register"], want["sweep"], want["fleet"], want["migrate"],
        ])
        sweep, error = _decode(*responses[1])
        if error:
            return errors
        # Outcomes are compared by (left, right), never by position.
        got = {
            (outcome.get("left"), outcome.get("right")):
                (outcome.get("consistent"), outcome.get("witness"))
            for outcome in sweep.get("outcomes", [])
        }
        for pair in sorted(set(got) | set(want["outcomes"]), key=repr):
            problem = _diff(
                f"{unit.label} #1 POST /sweep pair {pair}",
                got.get(pair), want["outcomes"].get(pair),
            )
            if problem:
                errors.append(problem)
        return errors

    def _unit(self, iteration: Iteration) -> Unit:
        tenant, name = self.TENANT, iteration.name
        calls = [
            _register_call(tenant, name, iteration.texts),
            Call.make("sweep", "POST", "/sweep", {
                "tenant": tenant, "choreography": name,
                "workers": self.WORKERS, "witnesses": "failures",
            }),
            Call.make("fleet", "POST", "/fleet", {
                "tenant": tenant, "choreography": name, "party": "H",
                "instances": self.INSTANCES, "seed": iteration.fleet_seed,
                "distinct": self.DISTINCT,
            }),
            Call.make("migrate", "POST", "/migrate", {
                "tenant": tenant, "choreography": name, "party": "H",
                "process": {"text": iteration.changed_hub, "format": "dsl"},
                "workers": self.WORKERS,
            }),
        ]
        return Unit(
            calls,
            lambda unit, responses: self.verify_iteration(
                unit, responses, iteration
            ),
            f"iteration {name}",
        )

    def setup_units(self) -> list:
        return [
            Unit([_tenant_call(self.TENANT)], [None], "set-up"),
            self._unit(self.iteration("warm", 0)),
        ]

    def plan(self, seconds: float) -> list:
        budget = max(4, int(seconds * FANOUT_UNITS_PER_S))
        if budget not in self._plans:
            self._plans[budget] = [
                self.iteration("it", index) for index in range(budget)
            ]
        return self._plans[budget]

    def units(self, connection: int, seconds: float):
        return [self._unit(iteration) for iteration in self.plan(seconds)]


WORKLOADS = {
    "check-hot": CheckHot,
    "evolve-lifecycle": EvolveLifecycle,
    "fanout": Fanout,
}


def make(name: str, seed: int) -> Workload:
    """The workload *name* for *seed*."""
    return WORKLOADS[name](seed)
