"""The four workloads: set-up, one pass, and the independent check of a pass.

Every library call goes through a module attribute (``covers.iterated_star``
and so on), so the tracer's wrappers are picked up when tracing is on.

A pass returns its verdicts, keyed by name, as relabel-invariant values plus
the program's own ``ok``; the documents it produced; and the raw outputs the
checker needs.  ``check`` re-verifies the outputs with ``check.py`` only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from coarsedim import asdim, covers, formats, metric, pou

import check

# Layers each workload must reach; the traced run fails when one records no call.
EXERCISES = {
    "sweep": ("covers.iterated_star", "covers.is_refinement", "covers.chain_graph",
              "covers.bfs", "pou.barycentric_map", "pou.variation", "pou.l1",
              "formats.dump"),
    "filler": ("covers.iterated_star", "covers.is_uniformly_bounded", "covers.diameter",
               "covers.bfs", "covers.shrink", "covers.star_cover", "pou.certify_pu",
               "pou.coarsening_witnesses", "pou.star_preimage_cover", "pou.l1",
               "asdim.build_skeleton_pu", "asdim.filler", "asdim.blend_alpha",
               "asdim.skeletal_retract", "asdim.check_asdim_pair", "formats.load",
               "formats.dump"),
    "roundtrip2d": ("covers.iterated_star", "covers.is_uniformly_bounded",
                    "covers.diameter", "covers.bfs", "covers.star_cover",
                    "pou.barycentric_map", "pou.variation", "pou.certify_pu",
                    "asdim.build_skeleton_pu", "asdim.trim_to_cover",
                    "asdim.check_asdim_pair", "formats.load", "formats.dump"),
    "bridge": ("pou.l1", "pou.barycentric_map", "metric.certify_delta_pu",
               "metric.set_diameter", "metric.comparison_forward",
               "metric.comparison_backward", "metric.ball_cover", "metric.space_init",
               "formats.load", "formats.dump"),
}


@dataclass
class PassResult:
    verdicts: dict[str, dict] = field(default_factory=dict)
    docs: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """SHA-256 of the pass's documents, in the order they were written."""
        return hashlib.sha256("".join(self.docs).encode()).hexdigest()


def verdict_names(workload: str, size: dict) -> list[str]:
    if workload == "sweep":
        names = [f"k{k}" for k in range(1, size["k_max"] + 1)]
    elif workload == "filler":
        names = ["base", "filler", "at_eps"]
    elif workload == "roundtrip2d":
        names = ["skeleton", "st2", "trim"]
    else:
        names = [f"{m}.d{d}.{step}" for d in ("1", "1/2") for m in ("ball", "const")
                 for step in ("gate", "forward", "backward")]
    return names + ["digest"]


# ---------------------------------------------------------------------------
# set-up

def load(workload: str, directory: Path) -> dict:
    """Read the workload's input files through ``formats``."""
    def read(name):
        return (directory / name).read_text()

    inputs = {"space": formats.load_space(read("space.txt"))}
    if workload == "sweep":
        k = 1
        inputs["witnesses"] = []
        while (directory / f"witness{k}.cover.txt").exists():
            inputs["witnesses"].append(formats.load_cover(read(f"witness{k}.cover.txt")))
            k += 1
    elif workload == "filler":
        inputs["coarse"] = formats.load_cover(read("coarse.cover.txt"))
        inputs["blocks"] = formats.load_cover(read("blocks.cover.txt"))
        inputs["anchors"] = formats.load_cover(read("anchors.cover.txt")).sets[0]
    elif workload == "roundtrip2d":
        inputs["witness"] = formats.load_cover(read("witness.cover.txt"))
    else:
        inputs["metric"] = formats.load_metric(read("metric.txt"))
    return inputs


def fresh(inputs: dict) -> dict:
    """Copies of the loaded covers and spaces with no cached state.

    ``Cover.membership`` and ``FiniteCoarseSpace.chain`` are cached on first
    use; a CLI run pays for them every time, so every pass starts without them.
    """
    def copy(value):
        if isinstance(value, covers.Cover):
            return covers.Cover(value.sets, value.n_points, value.allow_empty)
        if isinstance(value, covers.FiniteCoarseSpace):
            return covers.FiniteCoarseSpace(value.n_points, copy(value.gauge))
        if isinstance(value, list):
            return [copy(v) for v in value]
        return value

    return {name: copy(value) for name, value in inputs.items()}


# ---------------------------------------------------------------------------
# passes

def _pu_values(cert) -> dict:
    return {"ok": cert.ok, "variation": str(cert.variation_value),
            "variation_ok": cert.variation_ok, "coarsening_ok": cert.coarsening_ok,
            "max_diameter": str(cert.boundedness.max_diameter)}


def _delta_values(cert) -> dict:
    return {"ok": cert.ok, "lipschitz_ok": cert.lipschitz_ok,
            "lipschitz_margin": str(cert.lipschitz_value - cert.lipschitz_allowance),
            "lebesgue_ok": cert.lebesgue_ok,
            "max_diameter": str(cert.boundedness.max_diameter)}


def pass_steps(workload: str, inputs: dict, size: dict):
    """One pass as a generator: it yields between steps and returns its PassResult."""
    return _PASSES[workload](inputs, size, PassResult())


def _sweep(inp, size, out):
    gauge = inp["space"].gauge
    previous = None
    maps = []
    for k, witness in enumerate(inp["witnesses"], 1):
        witness = witness.normalize()
        ref = covers.is_refinement(covers.iterated_star(gauge, k), witness)
        mult = witness.max_multiplicity()
        f = pou.barycentric_map(gauge, witness)
        var = pou.variation(f, gauge)
        ok = (ref.ok and mult <= 2 and var.value <= Fraction(16, k)
              and (previous is None or var.value <= previous))
        previous = var.value
        out.verdicts[f"k{k}"] = {"ok": ok, "refines": ref.ok, "multiplicity": mult,
                                 "variation": str(var.value)}
        out.docs += [formats.dump_pu(f), formats.doc_dumps({"k": k, "variation": var})]
        maps.append((f, var))
        if k % 5 == 0 and k < len(inp["witnesses"]):
            yield
    out.outputs["maps"] = maps
    return out


def _filler(inp, size, out):
    space = inp["space"]
    diam = space.n_points - 1
    params = asdim.choose_filler_params(1, 1)
    base = asdim.build_skeleton_pu(space, inp["coarse"], inp["blocks"], 1, 1, diam)
    yield
    res = asdim.filler(space, base.pu, inp["anchors"], space.gauge, inp["coarse"],
                       params, diam)
    yield
    at_eps = pou.certify_pu(res.pu, space.gauge, space, params.eps, diam)
    cert = res.certificate
    ok = (cert.ok and res.budget_ok and res.retract.max_shift <= res.retract.shift_bound
          and res.min_peak_weight >= Fraction(1, params.n + 1)
          and cert.eps == min(params.eps, Fraction(1, 2)))
    out.verdicts["base"] = _pu_values(base.certificate)
    out.verdicts["filler"] = dict(
        _pu_values(cert), ok=ok, budget=str(res.budget), budget_ok=res.budget_ok,
        deviation=str(res.max_deviation_on_anchors), peak=str(res.min_peak_weight),
        max_shift=str(res.retract.max_shift), max_carrier=res.max_carrier_size)
    out.verdicts["at_eps"] = _pu_values(at_eps)
    doc = {"params": params, "input_certificate": res.input_certificate,
           "certificate": cert, "budget": res.budget,
           "measured_variation": res.measured_variation,
           "max_deviation_on_anchors": res.max_deviation_on_anchors,
           "min_peak_weight": res.min_peak_weight}
    out.docs += [formats.doc_dumps(base.certificate), formats.dump_pu(res.pu),
                 formats.doc_dumps(doc), formats.doc_dumps(at_eps)]
    out.outputs.update(params=params, base=base, result=res, at_eps=at_eps)
    return out


def _roundtrip2d(inp, size, out):
    space = inp["space"]
    gauge = space.gauge
    n, k = 2, 2
    diam = 2 * size["width"]
    built = asdim.build_skeleton_pu(space, gauge, inp["witness"], k, n, diam)
    yield
    wide_cover = covers.iterated_star(gauge, 2)
    wide = pou.certify_pu(built.pu, wide_cover, space, None, diam)
    yield
    trimmed = asdim.trim_to_cover(built.pu, gauge, n)
    cert = built.certificate
    out.verdicts["skeleton"] = dict(
        _pu_values(cert), ok=(cert.ok and cert.eps == Fraction((2 * n + 2) ** 2, k)
                              and built.pu.complex.dimension <= n
                              and built.pu.max_carrier_size() <= n + 1))
    out.verdicts["st2"] = _pu_values(wide)
    out.verdicts["trim"] = {"ok": trimmed.certificate.ok,
                            "max_count": trimmed.certificate.max_count}
    out.docs += [formats.dump_pu(built.pu), formats.doc_dumps(cert), formats.doc_dumps(wide),
                 formats.dump_cover(trimmed.cover), formats.doc_dumps(trimmed.certificate)]
    out.outputs.update(built=built, wide=wide, trimmed=trimmed)
    return out


def _bridge(inp, size, out):
    space, met = inp["space"], inp["metric"]
    n = met.n_points
    bound = n - 1
    certs = {}
    for delta, r in ((Fraction(1), size["radius"]), (Fraction(1, 2), 120)):
        const = pou.PartitionOfUnity(
            {x: pou.BarycentricPoint.vertex(0) for x in range(n)}, n, (0, 1))
        maps = {"ball": pou.barycentric_map(space.gauge, metric.ball_cover(met, r)),
                "const": const}
        for name, f in maps.items():
            tag = f"{name}.d{delta}"
            gate = metric.certify_delta_pu(f, met, delta * delta / 4, bound)
            fwd = metric.comparison_forward(f, met, delta, bound)
            back = metric.comparison_backward(f, met, delta, bound)
            out.verdicts[f"{tag}.gate"] = _delta_values(gate)
            out.verdicts[f"{tag}.forward"] = _pu_values(fwd)
            out.verdicts[f"{tag}.backward"] = dict(_delta_values(back),
                                                   ok=back.ok and back.delta == 2 * delta)
            out.docs += [formats.doc_dumps(c) for c in (gate, fwd, back)]
            certs[tag] = (f, delta, gate, fwd, back)
        if delta == 1:
            yield
    out.outputs["certs"] = certs
    return out


_PASSES = {"sweep": _sweep, "filler": _filler, "roundtrip2d": _roundtrip2d,
           "bridge": _bridge}


# ---------------------------------------------------------------------------
# independent check of one pass

def _values(pu) -> dict:
    return {x: dict(bp.weights) for x, bp in pu.values.items()}


def check_pass(workload: str, inputs: dict, result: PassResult) -> dict[str, str]:
    """Failed verdicts with their reasons, from re-verifying the outputs."""
    failures: dict[str, str] = {}

    def note(name, reason):
        if reason and name not in failures:
            failures[name] = reason

    space = inputs["space"]
    gauge_sets = space.gauge.sets
    adj = check.adjacency(gauge_sets, space.n_points)
    memo: dict = {}

    def pu_cert(name, values, vertices, cover_sets, cert):
        note(name, check.unit_sums(values))
        note(name, check.variation_witness(values, cover_sets, cert.variation_value,
                                           cert.variation_pair))
        b = cert.boundedness
        note(name, check.chain_bound_witness(values, vertices, adj, b.witness,
                                             b.max_diameter.value, memo))

    out = result.outputs
    if workload == "sweep":
        for k, (f, var) in enumerate(out["maps"], 1):
            values = _values(f)
            note(f"k{k}", check.unit_sums(values))
            note(f"k{k}", check.variation_witness(values, gauge_sets, var.value, var.pair))
    elif workload == "filler":
        base, res, params = out["base"], out["result"], out["params"]
        pu_cert("base", _values(base.pu), base.pu.vertices, inputs["coarse"].sets,
                base.certificate)
        values = _values(res.pu)
        pu_cert("filler", values, res.pu.vertices, gauge_sets, res.certificate)
        pu_cert("at_eps", values, res.pu.vertices, gauge_sets, out["at_eps"])
        retract = _values(res.retract.pu)
        deviation = max(check.l1(values[x], retract[x]) for x in inputs["anchors"])
        if deviation != res.max_deviation_on_anchors:
            note("filler", f"deviation on anchors is {deviation}")
        if min(max(w.values()) for w in values.values()) != res.min_peak_weight:
            note("filler", "smallest peak weight differs")
        m, d = params.m, params.delta
        budget = (2 * m + 1) * d + Fraction(6, m) + Fraction(2 * (2 * params.n + 2) ** 2,
                                                             params.k)
        if budget != res.budget:
            note("filler", f"budget is {budget}")
    elif workload == "roundtrip2d":
        built, wide, trimmed = out["built"], out["wide"], out["trimmed"]
        values = _values(built.pu)
        pu_cert("skeleton", values, built.pu.vertices, gauge_sets, built.certificate)
        twice = check.star_sets(check.star_sets(gauge_sets, gauge_sets), gauge_sets)
        pu_cert("st2", values, built.pu.vertices, twice, wide)
        for v, t in zip(built.pu.vertices, trimmed.cover.sets):
            if not t <= frozenset(check.star_preimage(values, v)):
                note("trim", f"trimmed element {v} leaves its star preimage")
        note("trim", check.asdim_count(gauge_sets, trimmed.cover.sets, 2))
    else:
        dist = inputs["metric"].dist
        n = len(dist)
        for tag, (f, delta, gate, fwd, back) in out["certs"].items():
            values = _values(f)
            for step, cert, at in (("gate", gate, delta * delta / 4),
                                   ("backward", back, 2 * delta)):
                note(f"{tag}.{step}", check.lipschitz_witness(
                    values, dist, at, cert.lipschitz_value, cert.lipschitz_allowance,
                    cert.lipschitz_pair))
                b = cert.boundedness
                note(f"{tag}.{step}", check.metric_bound_witness(
                    values, f.vertices, dist, b.witness, b.max_diameter))
            balls = [frozenset(y for y in range(n) if dist[c][y] <= 1 / delta)
                     for c in range(n)]
            note(f"{tag}.forward", check.variation_witness(
                values, balls, fwd.variation_value, fwd.variation_pair))
            b = fwd.boundedness
            note(f"{tag}.forward", check.metric_bound_witness(
                values, f.vertices, dist, b.witness, b.max_diameter))
    return failures
