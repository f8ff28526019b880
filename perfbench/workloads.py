"""The benchmark's workloads and the inputs they are generated from.

Each workload drives an entry point users run, through
``repro.cli.main``: ``repro sort`` file to file, or ``repro serve`` for
the multi-tenant service.  Every input is a function of the seed the
benchmark is given.  Why each workload was chosen, and which layers it
loads or bypasses, is recorded in ``BENCHMARK.json`` (``why``) and in
``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

from checker import OrderSpec


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sort" (``repro sort`` on a generated file) or "serve".
    kind: str
    #: Generator fan-out per level, root first (sort workloads).
    shape: tuple[int, ...] = ()
    #: Sibling order the checker enforces; matches the argv below.
    order: OrderSpec = OrderSpec()

    def argv(self, seed: int, input_path: str, output_path: str) -> list[str]:
        """The ``repro`` command line of one operation."""
        if self.kind == "sort":
            # NEXSORT with the paper's 4 KB blocks, the columnar kernel and
            # the default threshold; 12 blocks of memory.  Spelled out so
            # that a renamed or removed option fails the run instead of
            # silently changing what is measured.
            return [
                "sort", input_path, "-o", output_path,
                "--algorithm", "nexsort", "--memory", "12",
                "--block-size", "4096", "--kernel", "columnar",
                "--by", "name",
            ]
        return [
            "serve", "--workload", service_workload(seed),
            "--pool-memory", "48", "--block-size", "4096", "--disks", "4",
            "--policy", "fair", "--plan", "auto",
        ]


#: Jobs per service run: the p50 latency then has twelve samples beyond
#: it.  Small 4x4x8 documents keep one run near a third of a host second,
#: so a benchmark run holds over a hundred of them.
SERVICE_JOBS = 24


def service_workload(seed: int) -> str:
    """The ``repro serve --workload`` spec of one service run.

    Arrivals at 4096 jobs per simulated second land within about 0.006
    simulated seconds, far ahead of the pool's 57 jobs per second, so the
    queue order - and with it the simulated p50 - does not hinge on
    arrival jitter.  The padding varies with the seed (94 to 98 bytes per
    element), so simulated costs differ from seed to seed as document
    sizes do.
    """
    return (
        f"jobs={SERVICE_JOBS};rate=4096.0;seed={seed};shape=4x4x8;"
        f"memory=32;wire=1;pad={94 + seed % 5}"
    )


WORKLOADS = {
    w.name: w
    for w in (
        # Each 1000-child subtree (about 31 blocks) exceeds the 12-block
        # memory, so every subtree sort below the root is external: run
        # formation and merges dominate the sort, and ingest and emit
        # load the XML layer.  One operation takes about a third of a
        # host second, so a run times over a hundred of them.
        Workload(
            "wide-external", "sort", shape=(3, 1000),
            order=OrderSpec("name", missing_uses_tag=True),
        ),
        # Many small planned jobs on a shared pool: per-job fixed costs
        # (admission, leases, planner re-plans of degraded grants, wire
        # decoding) and internal subtree sorts; no XML text is parsed.
        Workload("service-mix", "serve", order=OrderSpec("name")),
    )
}


def write_tokens(tokens, handle, pad_rng: random.Random | None = None) -> None:
    """Serialize a ``repro`` token stream as XML text.

    With ``pad_rng``, each ``pad`` attribute is redrawn at a seeded
    length of 32 to 160 bytes (mean 96, the generator's default), so
    element sizes vary and the file size - with it the simulated I/O -
    depends on the seed, as real documents differ in size.
    """
    from repro.xml.tokens import EndTag, StartTag, Text

    out: list[str] = []
    for token in tokens:
        if isinstance(token, StartTag):
            attrs = []
            for name, value in token.attrs:
                if pad_rng is not None and name == "pad":
                    value = "x" * pad_rng.randint(32, 160)
                attrs.append(f" {name}={quoteattr(value)}")
            out.append(f"<{token.tag}{''.join(attrs)}>")
        elif isinstance(token, EndTag):
            out.append(f"</{token.tag}>")
        elif isinstance(token, Text):
            out.append(
                token.text.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;")
            )
        else:
            raise ValueError(f"cannot serialize token {token!r}")
        if len(out) >= 8192:
            handle.write("".join(out))
            out.clear()
    handle.write("".join(out))


def write_sort_input(workload: Workload, seed: int, path: str) -> None:
    """Write the Table-2-style ``level_fanout`` document of ``workload``."""
    from repro.generators.level_fanout import level_fanout_events

    with open(path, "w", encoding="utf-8") as handle:
        write_tokens(
            level_fanout_events(list(workload.shape), seed=seed),
            handle,
            pad_rng=random.Random(f"pad-{seed}"),
        )
