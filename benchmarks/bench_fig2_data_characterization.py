"""Figure 2: FL model parameters are spiky, scientific data is smooth.

Regenerates the comparison between snippets of flattened model weights and
slices of (synthetic) MIRANDA-like fields, reporting the normalized total
variation of each series and the resulting compressibility gap.

It also records SZ2's payload for whole 100000-value MIRANDA-like fields at
REL 1e-2, 1e-3 and 1e-4, next to what format v6 (HUF3 codes under a zlib
level 1 pass) spent on each.  Format v7 dropped that pass: its order-0 tuple
code cannot see the runs zlib collapsed on smooth fields, so fine bounds
cost up to ~65% more bytes (ROADMAP, smooth-field follow-up).  The bench
fails when any field grows past :data:`_SMOOTH_GROWTH_LIMIT`, so the loss
stays visible and bounded until that item wins it back.
"""

from __future__ import annotations

import numpy as np

from bench_utils import save_results, trained_like_state
from repro.compressors import SZ2Compressor
from repro.data import miranda_like_field, spikiness
from repro.metrics import ExperimentRecord, Table


def _weight_snippets(n_snippets: int = 5, length: int = 500) -> list[np.ndarray]:
    state = trained_like_state("alexnet")
    flat = np.concatenate([v.ravel() for k, v in state.items() if "weight" in k])
    offsets = np.linspace(0, flat.size - length, n_snippets).astype(int)
    return [flat[o : o + length].astype(np.float64) for o in offsets]


def _science_slices(n_slices: int = 4, length: int = 400) -> list[np.ndarray]:
    kinds = ["density", "density", "velocity", "velocity"]
    return [miranda_like_field(length, seed=i, kind=kinds[i % len(kinds)]).astype(np.float64)
            for i in range(n_slices)]


#: SZ2 payload bytes of each 100000-value field at format v6, by REL bound:
#: density seeds 0-3, then velocity seeds 0-3 (the last format whose SZ2
#: bodies went through zlib level 1).
_V6_FIELD_BYTES = {
    1e-2: [6543, 6548, 6568, 6547, 6663, 6677, 6698, 6664],
    1e-3: [6551, 6548, 6568, 6547, 6671, 6677, 6698, 6664],
    1e-4: [6602, 6569, 6576, 6575, 6721, 6701, 6708, 6691],
}
#: Largest growth over v6 a field's payload may show (v7 reads up to +64.8%).
_SMOOTH_GROWTH_LIMIT = 0.70


def _smooth_field_rows() -> list[dict]:
    rows = []
    for rel_bound, v6_sizes in _V6_FIELD_BYTES.items():
        compressor = SZ2Compressor(error_bound=rel_bound)
        fields = [(kind, seed) for kind in ("density", "velocity") for seed in range(4)]
        for (kind, seed), v6_bytes in zip(fields, v6_sizes):
            field = miranda_like_field(100_000, seed=seed, kind=kind).astype(np.float32)
            payload_bytes = len(compressor.compress(field))
            rows.append({"rel_bound": rel_bound, "kind": kind, "seed": seed,
                         "v6_bytes": v6_bytes, "payload_bytes": payload_bytes,
                         "growth": payload_bytes / v6_bytes - 1,
                         "ratio": field.nbytes / payload_bytes})
    return rows


def bench_fig2_data_characterization(benchmark):
    def run():
        weight_snips = _weight_snippets()
        science_snips = _science_slices()
        compressor = SZ2Compressor(error_bound=1e-2)
        rows = []
        for family, snippets in (("FL weights", weight_snips), ("Miranda-like", science_snips)):
            for idx, snip in enumerate(snippets):
                payload = compressor.compress(snip.astype(np.float32))
                rows.append({
                    "family": family,
                    "snippet": idx,
                    "spikiness": spikiness(snip),
                    "ratio": snip.astype(np.float32).nbytes / len(payload),
                })
        return rows, _smooth_field_rows()

    rows, field_rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table("Figure 2 - signal character: FL weights vs scientific data",
                  ["family", "snippet", "spikiness (TV/range)", "SZ2 ratio @1e-2"])
    record = ExperimentRecord("fig2", "FL weights are spiky; scientific slices are smooth")
    for row in rows:
        table.add_row(row["family"], row["snippet"], f"{row['spikiness']:.4f}", f"{row['ratio']:.2f}x")
        record.add(**row)

    weight_spike = np.mean([r["spikiness"] for r in rows if r["family"] == "FL weights"])
    science_spike = np.mean([r["spikiness"] for r in rows if r["family"] == "Miranda-like"])
    summary = Table("Figure 2 - summary", ["family", "mean spikiness"])
    summary.add_row("FL weights", f"{weight_spike:.4f}")
    summary.add_row("Miranda-like", f"{science_spike:.4f}")

    fields = Table("SZ2 on 100000-value Miranda-like fields: format v6 (zlib pass) vs now",
                   ["REL", "kind", "seed", "v6 bytes", "bytes", "growth", "ratio"])
    for row in field_rows:
        fields.add_row(f"{row['rel_bound']:.0e}", row["kind"], row["seed"], row["v6_bytes"],
                       row["payload_bytes"], f"{row['growth']:+.1%}", f"{row['ratio']:.1f}x")
        record.add(family="Miranda-like field", **row)
    growth_max = max(row["growth"] for row in field_rows)
    record.add(smooth_growth_max=growth_max,
               smooth_ratio_min=min(row["ratio"] for row in field_rows))
    save_results("fig2_data_characterization", [table, summary, fields], record)

    assert weight_spike > science_spike, "paper claim: weights are spikier than scientific data"
    assert growth_max <= _SMOOTH_GROWTH_LIMIT, (
        f"a smooth field's SZ2 payload grew {growth_max:+.1%} over format v6, past "
        f"the {_SMOOTH_GROWTH_LIMIT:+.0%} the order-0 tuple code is allowed")
