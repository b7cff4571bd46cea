"""Command-line workbench: generators, certification runs, pipelines, oracles.

Exit codes: 0 when every certificate passes, 1 when a certificate fails
(the document is still emitted), 2 on input errors (a machine-readable error
document goes to stdout).
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import formats, oracles
from .asdim import (
    build_skeleton_pu,
    check_asdim_pair,
    choose_filler_params,
    filler,
    find_witness_bruteforce,
    shrink_with_multiplicity,
    trim_to_cover,
)
from .covers import Cover, FiniteCoarseSpace, chain_index, iterated_star, star_misfit
from .errors import ConstructionError, InputError, PreconditionError
from .generators import (
    gen_grid2d,
    gen_line,
    gen_random_geometric,
    random_cover,
    random_refinement_pair,
)
from .metric import FiniteMetricSpace, certify_delta_pu
from .pou import barycentric_map, certify_pu, variation


@dataclass(frozen=True)
class Family:
    """A generated space family, as the CLI reads it."""

    build: Callable  # the spec's numbers -> an instance with a .space
    covers: dict[str, str]  # named cover -> its gen flag; the instance's method builds it
    witness: Callable[[int], str]  # the default witness at scale k


# Keyed by spec: each {field} is a number, and a flag of the builder's gen subcommand.
LINE = "line{n}"
FAMILIES = {
    LINE: Family(gen_line, {"staggered": "--staggered-half", "blocks": "--block-len"},
                 lambda k: f"blocks:{4 * k + 10}"),
    "grid{width}x{height}": Family(gen_grid2d, {"bricks": "--brick-len"},
                                   lambda k: f"bricks:{8 * k + 4}"),
}


def _spec_fields(spec: str) -> list[str]:
    return re.findall(r"\{(\w+)\}", spec)


def _spec_name(spec: str) -> str:
    """The spec as the messages write it: line{n} is lineN, grid{width}x{height} gridWxH."""
    return re.sub(r"\{(\w)\w*\}", lambda m: m[1].upper(), spec)


def _spec_numbers(spec: str, arg: str) -> list[int] | None:
    m = re.fullmatch(re.sub(r"\{\w+\}", "([0-9]+)", spec), arg)
    return m and [int(g) for g in m.groups()]


def _read_input(path) -> str:
    """An input file's text; a byte that is not UTF-8 reads as U+FFFD, which loaders refuse."""
    return Path(path).read_text(encoding="utf-8", errors="replace")


def _load_space_arg(arg: str) -> tuple[FiniteCoarseSpace, Family | None, object]:
    """The space an argument names, with its family row and instance (None for a file)."""
    for spec, family in FAMILIES.items():
        numbers = _spec_numbers(spec, arg)
        if numbers:
            inst = family.build(*numbers)
            return inst.space, family, inst
    path = Path(arg)
    if not path.exists():
        specs = ", ".join(map(_spec_name, FAMILIES))
        raise InputError(f"space {arg!r} is neither a spec ({specs}) nor a file")
    return formats.load_space(_read_input(path)), None, None


def _load_cover_arg(arg: str, space: FiniteCoarseSpace, family: Family | None, inst) -> Cover:
    if arg == "gauge":
        return space.gauge
    head, _, tail = arg.partition(":")
    owner = next((spec for spec, row in FAMILIES.items() if head in row.covers), None)
    if (head == "st" or owner) and tail:
        try:
            size, = formats._ints([tail], arg)
        except InputError:
            raise InputError(f"cover {arg!r} needs an integer after {head + ':'!r}") from None
        if head == "st":
            return iterated_star(space.gauge, size)
        if family is not FAMILIES[owner]:
            raise InputError(f"cover {arg!r} needs a {_spec_name(owner)} space spec")
        return getattr(inst, head)(size)
    path = Path(arg)
    if not path.exists():
        raise InputError(f"cover {arg!r} is neither a shorthand nor a file")
    return formats.load_cover(_read_input(path))


def _load_metric_arg(arg: str) -> FiniteMetricSpace:
    numbers = _spec_numbers(LINE, arg)
    if numbers:
        return FiniteMetricSpace.line(*numbers)
    path = Path(arg)
    if not path.exists():
        raise InputError(f"metric {arg!r} is neither {_spec_name(LINE)} nor a file")
    return formats.load_metric(_read_input(path))


def _finite(flag: str, text: str) -> Fraction:
    """A flag's value where a finite rational is required: 'inf' is refused."""
    value = formats.parse_fraction(text)
    if value is None:
        raise InputError(f"{flag} {text!r} must be a finite rational (p/q or an integer)")
    return value


def _emit(doc, out: str | None) -> None:
    text = formats.doc_dumps(doc)
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _cert_doc(name: str, cert, extra=None) -> dict:
    doc = {"construction": name, "certificate": cert}
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_gen(args) -> int:
    # every file's text is built before any file is written, so an input error writes none
    if args.kind == "random-geometric":
        inst = gen_random_geometric(args.n, _finite("--radius", args.radius), args.seed)
        prefix = args.out_prefix or f"rg{args.n}s{args.seed}"
        files = [(f"{prefix}.space.txt", formats.dump_space(inst.space)),
                 (f"{prefix}.metric.txt", formats.dump_metric(inst.metric))]
    else:
        family = FAMILIES[args.spec]
        numbers = {field: getattr(args, field) for field in _spec_fields(args.spec)}
        inst = family.build(*numbers.values())
        prefix = args.out_prefix or args.spec.format(**numbers)
        files = [(f"{prefix}.space.txt", formats.dump_space(inst.space))]
        for name, flag in family.covers.items():
            # a size given twice is one file, listed once in first-seen order
            for size in dict.fromkeys(getattr(args, flag[2:].replace("-", "_")) or []):
                files.append((f"{prefix}.{name}{size}.cover.txt",
                              formats.dump_cover(getattr(inst, name)(size))))
    for path, text in files:
        Path(path).write_text(text)
    doc = {"generated": args.kind, "files": [path for path, _ in files]}
    if args.kind == "random-geometric":
        doc["chain_connected"] = inst.space.chain.is_connected()
    _emit(doc, None)
    return 0


def _cmd_phi(args) -> int:
    space, family, inst = _load_space_arg(args.space)
    target = _load_cover_arg(args.cover, space, family, inst)
    chains = _load_cover_arg(args.chains, space, family, inst)
    pu = barycentric_map(chains, target, d_cap=args.d_cap)
    if args.out_pu:
        Path(args.out_pu).write_text(formats.dump_pu(pu))
    doc = {
        "construction": "barycentric-map",
        "points": pu.n_points,
        "vertices": len(pu.vertices),
        "max_carrier": pu.max_carrier_size(),
        "complex_dimension": pu.complex.dimension,
        "weights_sum_to_one": True,  # enforced by construction; recorded for the document
    }
    _emit(doc, args.out)
    return 0


def _cmd_certify(args) -> int:
    if args.mode == "pu":
        space, family, inst = _load_space_arg(args.space)
        pu = formats.load_pu(_read_input(args.pu))
        cover = _load_cover_arg(args.cover, space, family, inst)
        eps = formats.parse_fraction(args.eps)
        cert = certify_pu(pu, cover, space, eps, args.diam)
        _emit(_cert_doc("certify-pu", cert), args.out)
        return 0 if cert.ok else 1
    metric = _load_metric_arg(args.metric)
    pu = formats.load_pu(_read_input(args.pu))
    cert = certify_delta_pu(pu, metric, _finite("--delta", args.delta),
                            _finite("--diam", args.diam))
    _emit(_cert_doc("certify-delta-pu", cert), args.out)
    return 0 if cert.ok else 1


def _cmd_asdim(args) -> int:
    space, family, inst = _load_space_arg(args.space)
    if args.mode == "check":
        u = _load_cover_arg(args.cover_u, space, family, inst)
        v = _load_cover_arg(args.cover_v, space, family, inst)
        cert = check_asdim_pair(u, v, args.n)
        _emit(_cert_doc("asdim-pair", cert), args.out)
        return 0 if cert.ok else 1
    if not (args.witness or family):
        raise InputError("a witness cover is required for file-based spaces")
    witness_arg = args.witness or family.witness(args.k)
    witness = _load_cover_arg(witness_arg, space, family, inst)
    gauge = space.gauge
    result = build_skeleton_pu(space, gauge, witness, args.k, args.n, args.diam)
    if args.mode == "skeleton":
        if args.out_pu:
            Path(args.out_pu).write_text(formats.dump_pu(result.pu))
        _emit(_cert_doc("skeleton-map", result.certificate,
                        {"witness": witness_arg,
                         "precondition": result.precondition}),
              args.out)
        return 0 if result.certificate.ok else 1
    # round trip: witness -> certified map -> trimmed witness
    wide = certify_pu(result.pu, iterated_star(gauge, 2), space, None, args.diam)
    trim = trim_to_cover(result.pu, gauge, args.n)
    ok = result.certificate.ok and wide.ok and trim.certificate.ok
    _emit({
        "construction": "asdim-roundtrip",
        "witness": witness_arg,
        "skeleton_certificate": result.certificate,
        "wide_scale_certificate": wide,
        "trimmed_counts": trim.certificate,
        "ok": ok,
    }, args.out)
    return 0 if ok else 1


def _cmd_filler(args) -> int:
    space, family, line = _load_space_arg(args.space)
    if family is not FAMILIES[LINE]:
        raise InputError("the filler pipeline is wired for line specs (lineN)")
    params = choose_filler_params(_finite("--eps", args.eps), args.n)
    coarse = line.staggered(2 * params.k + 1)
    blocks = line.blocks((space.n_points + 1) // 2 if args.n >= 1 else space.n_points)
    base = build_skeleton_pu(space, coarse, blocks, 1, args.n, args.diam)
    result = filler(space, base.pu, range(args.a_end), space.gauge, coarse, params, args.diam)
    if args.out_pu:
        Path(args.out_pu).write_text(formats.dump_pu(result.pu))
    doc = {
        "construction": "filler",
        "params": params,
        "input_certificate": result.input_certificate,
        "certificate": result.certificate,
        "budget": result.budget,
        "measured_variation": result.measured_variation,
        "budget_ok": result.budget_ok,
        "max_deviation_on_anchors": result.max_deviation_on_anchors,
        "max_carrier_size": result.max_carrier_size,
        "min_peak_weight": result.min_peak_weight,
        "ok": result.certificate.ok and result.budget_ok,
    }
    _emit(doc, args.out)
    return 0 if doc["ok"] else 1


def _cmd_oracle(args) -> int:
    if args.mode != "asdim-witness":
        # chain-index counts the points whose index disagrees, shrink the instances that fail
        if args.instances < 1:
            raise InputError(f"--instances {args.instances} is below 1")
        if args.max_points < 2:
            raise InputError(f"--max-points {args.max_points} is below 2")
        rng = random.Random(args.seed)
        count = 0
        for _ in range(args.instances):
            n = rng.randrange(2, args.max_points + 1)
            if args.mode == "chain-index":
                cover = random_cover(rng, n, connected=True)
                region = frozenset(x for x in range(n) if rng.random() < 0.6)
                count += sum(chain_index(cover, x, region)
                             != oracles.chain_index_by_enumeration(cover, x, region)
                             for x in range(n))
            else:
                fine, coarse = random_refinement_pair(rng, n)
                shrunk = shrink_with_multiplicity(fine, coarse)
                count += oracles.shrink_clause_violation(fine, coarse, shrunk) is not None
        key = "mismatches" if args.mode == "chain-index" else "violations"
        _emit({"oracle": args.mode, "instances": args.instances, key: count, "ok": count == 0},
              args.out)
        return 0 if count == 0 else 1
    space, family, inst = _load_space_arg(args.space)
    cover = _load_cover_arg(args.cover, space, family, inst)
    witness = find_witness_bruteforce(space, cover, args.n, args.diam)
    if witness is None:
        _emit({"oracle": "asdim-witness", "found": False,
               "note": "no witness within the ball family and budget; "
                       "this refutes nothing beyond that family"}, args.out)
        return 1
    doc = {"oracle": "asdim-witness", "found": True,
           "elements": [sorted(s) for s in witness.sets]}
    if args.out_cover:
        Path(args.out_cover).write_text(formats.dump_cover(witness))
    _emit(doc, args.out)
    return 0


def _parse_k_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = formats._ints([lo, hi if dots else lo], text)
    except InputError:
        raise InputError(f"--k {text!r} is neither an integer nor a range like 1..64") from None
    ks = range(lo, hi + 1)
    if not ks or ks[0] < 1:
        raise InputError(f"--k {text!r} must name scales k >= 1, low end first")
    return ks


def _cmd_sweep(args) -> int:
    space, family, line = _load_space_arg(args.space)
    if family is not FAMILIES[LINE]:
        raise InputError("the sweep is wired for line specs (lineN)")
    gauge = space.gauge
    rows = []
    previous = None
    monotone = True
    bounded = True
    for k in _parse_k_range(args.k):
        cover = line.staggered(2 * k + 1)
        if star_misfit(gauge, k, cover) is not None:
            raise ConstructionError(f"staggered witness at k={k} is not coarse enough")
        pu = barycentric_map(gauge, cover)
        var = variation(pu, gauge)
        bound = Fraction(16, k)
        rows.append((k, var.value, bound))
        if var.value > bound:
            bounded = False
        if previous is not None and var.value > previous:
            monotone = False
        previous = var.value
    if args.out:
        lines = ["k,variation_num,variation_den,bound_num,bound_den"]
        for k, v, b in rows:
            lines.append(f"{k},{v.numerator},{v.denominator},{b.numerator},{b.denominator}")
        Path(args.out).write_text("\n".join(lines) + "\n")
    doc = {
        "construction": "variation-sweep",
        "rows": [{"k": k, "variation": v, "bound": b} for k, v, b in rows],
        "all_within_bound": bounded,
        "nonincreasing": monotone,
        "ok": bounded and monotone,
    }
    _emit(doc, None)
    return 0 if doc["ok"] else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A flag error is an input error: exit 2 with an error document, as any other."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coarsedim",
        description="Cover algebra, nerve maps, and asymptotic-dimension "
                    "certificates on finite coarse spaces (exact arithmetic).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit space and cover files")
    gsub = p.add_subparsers(dest="kind", required=True)
    for spec, family in FAMILIES.items():
        # the subcommand is named after the builder: gen_line writes `gen line`
        g = gsub.add_parser(family.build.__name__.removeprefix("gen_"))
        g.set_defaults(spec=spec)
        for field in _spec_fields(spec):
            g.add_argument(f"--{field}", type=int, required=True)
        for flag in family.covers.values():
            g.add_argument(flag, type=int, action="append")
        g.add_argument("--out-prefix")
    g = gsub.add_parser("random-geometric")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--radius", required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out-prefix")

    p = sub.add_parser("phi", help="build the nerve map for a cover")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--chains", default="gauge")
    p.add_argument("--d-cap", type=int, default=None)
    p.add_argument("--out-pu")
    p.add_argument("--out")

    p = sub.add_parser("certify", help="run a certificate")
    csub = p.add_subparsers(dest="mode", required=True)
    c = csub.add_parser("pu")
    c.add_argument("--space", required=True)
    c.add_argument("--pu", required=True)
    c.add_argument("--cover", required=True)
    c.add_argument("--eps", required=True, help="p/q, an integer, or inf")
    c.add_argument("--diam", type=int, required=True)
    c.add_argument("--out")
    c = csub.add_parser("delta")
    c.add_argument("--metric", required=True)
    c.add_argument("--pu", required=True)
    c.add_argument("--delta", required=True)
    c.add_argument("--diam", required=True)
    c.add_argument("--out")

    p = sub.add_parser("asdim", help="intersection counts, skeleton maps, round trips")
    asub = p.add_subparsers(dest="mode", required=True)
    a = asub.add_parser("check")
    a.add_argument("--space", required=True)
    a.add_argument("--cover-u", required=True)
    a.add_argument("--cover-v", required=True)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--out")
    for name in ("skeleton", "roundtrip"):
        a = asub.add_parser(name)
        a.add_argument("--space", required=True)
        a.add_argument("--witness")
        a.add_argument("--k", type=int, required=True)
        a.add_argument("--n", type=int, required=True)
        a.add_argument("--diam", type=int, required=True)
        a.add_argument("--out")
        if name == "skeleton":
            a.add_argument("--out-pu")

    p = sub.add_parser("filler", help="full blend pipeline on a line space")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--a-end", type=int, required=True,
                   help="the anchor subset is 0..a_end-1")
    p.add_argument("--diam", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--out-pu")

    p = sub.add_parser("oracle", help="tiny-instance brute-force comparisons")
    osub = p.add_subparsers(dest="mode", required=True)
    o = osub.add_parser("chain-index")
    o.add_argument("--instances", type=int, default=200)
    o.add_argument("--max-points", type=int, default=8)
    o.add_argument("--seed", type=int, default=1)
    o.add_argument("--out")
    o = osub.add_parser("shrink")
    o.add_argument("--instances", type=int, default=200)
    o.add_argument("--max-points", type=int, default=12)
    o.add_argument("--seed", type=int, default=2)
    o.add_argument("--out")
    o = osub.add_parser("asdim-witness")
    o.add_argument("--space", required=True)
    o.add_argument("--cover", default="gauge")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--diam", type=int, required=True)
    o.add_argument("--out")
    o.add_argument("--out-cover")

    p = sub.add_parser("sweep", help="variation against the bound over a range of scales")
    p.add_argument("--space", required=True)
    p.add_argument("--k", required=True, help="a single k or a range like 1..64")
    p.add_argument("--out", help="CSV output path")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "phi": _cmd_phi,
    "certify": _cmd_certify,
    "asdim": _cmd_asdim,
    "filler": _cmd_filler,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except (InputError, PreconditionError, ConstructionError, OSError) as exc:
        # OSError: an input or output path that cannot be read or written
        sys.stdout.write(formats.doc_dumps(
            {"error": type(exc).__name__, "detail": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
