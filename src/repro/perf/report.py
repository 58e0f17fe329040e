"""Reporting helpers: formatted tables and the paper's headline claims."""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.topology import Topology, default_server
from .join_models import JoinModels
from .tpch_models import TPCHModels


@dataclass(frozen=True)
class HeadlineClaim:
    """One headline speed-up claim of the paper, with our measured value."""

    name: str
    paper_value: str
    measured: float

    def row(self) -> str:
        return f"{self.name:<58} paper: {self.paper_value:<12} measured: {self.measured:5.2f}x"


def format_series(title: str, series: dict[str, list], *,
                  unit: str = "s") -> str:
    """Render a figure's series as an aligned text table."""
    lines = [title]
    for variant, points in series.items():
        cells = []
        for point in points:
            seconds = getattr(point, "seconds", None)
            size = getattr(point, "tuples_per_side", None)
            label = f"{size / 1e6:.0f}M" if size else "?"
            value = "n/a" if seconds is None else f"{seconds:.3f}{unit}"
            cells.append(f"{label}={value}")
        lines.append(f"  {variant:<22} " + "  ".join(cells))
    return "\n".join(lines)


def headline_claims(topology: Topology | None = None) -> list[HeadlineClaim]:
    """Compute every headline claim of the abstract / Sections 6.2-6.4."""
    topology = topology if topology is not None else default_server()
    joins = JoinModels(topology)
    tpch = TPCHModels(topology)
    claims: list[HeadlineClaim] = []

    # "up to 10x ... on the radix-join against CPU ... alternatives"
    n128 = 128_000_000
    gpu_radix = joins.partitioned_gpu_seconds(n128)
    claims.append(HeadlineClaim(
        "GPU radix join vs best CPU join (128M tuples)", "10x",
        joins.partitioned_cpu_seconds(n128) / gpu_radix))
    # "and 3.5x ... against ... GPU alternatives"
    claims.append(HeadlineClaim(
        "GPU radix join vs non-partitioned GPU join (128M tuples)", "3.5x",
        joins.non_partitioned_gpu_seconds(n128) / gpu_radix))
    # "12.5x and 4.4x speedup over DBMS G and DBMS C" (largest size each)
    coproc_512 = joins.coprocessing_seconds(512_000_000, num_gpus=2)
    coproc_2048 = joins.coprocessing_seconds(2_048_000_000, num_gpus=2)
    claims.append(HeadlineClaim(
        "Co-processing vs DBMS G (512M tuples)", "12.5x",
        joins.dbms_g_out_of_gpu_seconds(512_000_000) / coproc_512))
    claims.append(HeadlineClaim(
        "Co-processing vs DBMS C (2B tuples)", "4.4x",
        joins.dbms_c_seconds(2_048_000_000) / coproc_2048))
    # "adding an extra GPU ... almost doubles (1.7x) the total throughput"
    claims.append(HeadlineClaim(
        "2-GPU vs 1-GPU co-processing (2B tuples)", "1.7x",
        joins.coprocessing_seconds(2_048_000_000, num_gpus=1) / coproc_2048))
    # TPC-H: hybrid vs the commercial systems (1.6x - 8x)
    figure8 = tpch.figure8()
    for query in ("Q1", "Q5", "Q6", "Q9"):
        estimates = {e.system: e.seconds for e in figure8[query]}
        hybrid = estimates["Proteus Hybrid"]
        dbms_c = estimates["DBMS C"]
        claims.append(HeadlineClaim(
            f"TPC-H {query}: Proteus Hybrid vs DBMS C", "1.6x-8x",
            dbms_c / hybrid))
    # Q9: hybrid vs CPU-only ("a speedup of 2x over the CPU version")
    estimates = {e.system: e.seconds for e in figure8["Q9"]}
    claims.append(HeadlineClaim(
        "TPC-H Q9: Proteus Hybrid vs Proteus CPUs", "2x",
        estimates["Proteus CPUs"] / estimates["Proteus Hybrid"]))
    # Figure 9 speedups (1.44x GPU-only, 1.23x hybrid)
    figure9 = tpch.figure9()
    claims.append(HeadlineClaim(
        "Q5 GPU config: partitioned vs non-partitioned join", "1.44x",
        figure9["GPU"]["Non partitioned join"]
        / figure9["GPU"]["Partitioned join"]))
    claims.append(HeadlineClaim(
        "Q5 hybrid config: partitioned vs non-partitioned join", "1.23x",
        figure9["Hybrid"]["Non partitioned join"]
        / figure9["Hybrid"]["Partitioned join"]))
    return claims


def format_headline_claims(topology: Topology | None = None) -> str:
    """A printable summary of every headline claim."""
    lines = ["Headline claims (paper vs this reproduction):"]
    lines.extend("  " + claim.row() for claim in headline_claims(topology))
    return "\n".join(lines)
