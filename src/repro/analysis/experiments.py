"""Experiment runners: one function per DESIGN.md experiment id.

Each runner returns a list of row dicts; the benchmarks render them with
:func:`repro.analysis.tables.format_table`, assert the paper-claim *shape*,
and write the tables that EXPERIMENTS.md records.  Sizes default to values
that keep every experiment in the seconds range; the benchmarks may pass
larger sweeps.
"""

from __future__ import annotations

import math
import random
import time

import networkx as nx

from repro.baselines.arborescence import exact_vertical_tap, kt_tecss_3approx
from repro.baselines.exact_milp import exact_tap_milp, exact_two_ecss_milp
from repro.baselines.greedy_tap import greedy_tap
from repro.baselines.trivial import all_edges_solution, mst_plus_cheapest_cover
from repro.core.forward import forward_phase
from repro.core.instance import TAPInstance
from repro.core.reverse import reverse_delete
from repro.core.rounds import PrimitiveLog, RoundCostModel
from repro.core.tap import approximate_tap, solve_virtual_tap
from repro.core.tecss import approximate_two_ecss
from repro.core.unweighted import unweighted_tap
from repro.decomp.layering import Layering
from repro.decomp.segments import SegmentDecomposition
from repro.graphs.families import make_family_instance
from repro.runtime.plan import SolverPlan
from repro.shortcuts.partition import mst_fragment_partition
from repro.shortcuts.providers import (
    BestOfShortcuts,
    SizeThresholdShortcuts,
    TreeRestrictedShortcuts,
)
from repro.shortcuts.subroutines import CoverCounter55, CoverDetector
from repro.shortcuts.tap_shortcut import shortcut_two_ecss
from repro.shortcuts.tools import FragmentHierarchy, ShortcutToolkit
from repro.trees.rooted import RootedTree

__all__ = [
    "e01_tecss_approx",
    "e02_round_complexity",
    "e03_tap_approx",
    "e04_ablation",
    "e05_layering",
    "e06_unweighted",
    "e07_shortcut_algorithm",
    "e08_shortcut_tools",
    "e09_subroutines",
    "e10_forward_iterations",
    "e11_segments",
    "e12_comparison",
    "e13_sim_engine",
]

SMALL_FAMILIES = ("cycle_chords", "erdos_renyi", "grid", "hub_cycle", "ktree2")


# ----------------------------------------------------------------------
# E1 — Theorem 1.1 quality
# ----------------------------------------------------------------------

def e01_tecss_approx(
    families=SMALL_FAMILIES, n_small: int = 16, n_large: int = 150, seeds=(1, 2),
    eps: float = 0.5, backend: str = "reference",
):
    """Approximation quality vs MILP optimum / certified bound.

    ``backend="fast"`` (with a large ``n_large``) runs the certified-bound
    rows on the vectorized kernels — 20k+-node instances stay practical.
    """
    rows = []
    for family in families:
        for seed in seeds:
            g = make_family_instance(family, n_small, seed=seed)
            res = approximate_two_ecss(g, eps=eps, backend=backend)
            opt = exact_two_ecss_milp(g)
            rows.append(
                {
                    "family": family,
                    "n": g.number_of_nodes(),
                    "opt": opt.weight,
                    "algo": res.weight,
                    "ratio_vs_opt": res.weight / opt.weight,
                    "guarantee": res.guarantee,
                    "within": res.weight <= res.guarantee * opt.weight + 1e-6,
                }
            )
        g = make_family_instance(family, n_large, seed=seeds[0])
        res = approximate_two_ecss(g, eps=eps, backend=backend)
        rows.append(
            {
                "family": family,
                "n": g.number_of_nodes(),
                "opt": float("nan"),
                "algo": res.weight,
                "ratio_vs_opt": res.certified_ratio,  # vs certified lower bound
                "guarantee": res.guarantee,
                "within": res.certified_ratio <= res.guarantee + 1e-6,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E2 — Theorem 1.1 round complexity
# ----------------------------------------------------------------------

def e02_round_complexity(
    families=("cycle_chords", "grid", "hub_cycle", "erdos_renyi"),
    sizes=(60, 120, 240, 480),
    eps: float = 0.5,
    seed: int = 1,
    backend: str = "reference",
):
    """Modeled rounds vs the Theorem 1.1 bound across sizes."""
    rows = []
    for family in families:
        for n in sizes:
            g = make_family_instance(family, n, seed=seed)
            res = approximate_two_ecss(g, eps=eps, backend=backend)
            model = RoundCostModel(res.n, res.diameter)
            rounds = res.modeled_rounds()
            bound = model.theorem_1_1_bound(eps)
            rows.append(
                {
                    "family": family,
                    "n": res.n,
                    "D": res.diameter,
                    "modeled_rounds": rounds,
                    "thm11_bound": bound,
                    "rounds/bound": rounds / bound,
                    "lower_bound": model.lower_bound(),
                }
            )
    return rows


# ----------------------------------------------------------------------
# E3 — Theorem 4.19: TAP quality, including (2+eps) on G'
# ----------------------------------------------------------------------

def _adversarial_tap_instance(n: int, seed: int) -> TAPInstance:
    """Path-heavy tree with length-proportional link weights: the regime
    where greedy-style covers overpay and the ratio on G' is nontrivial."""
    rng = random.Random(seed)
    parent = [-1]
    for v in range(1, n):
        parent.append(v - 1 if rng.random() < 0.7 else rng.randrange(v))
    tree = RootedTree(parent, 0)
    links = []
    for v in range(1, tree.n):
        d = rng.randrange(tree.depth[v])
        anc = tree.ancestor_at_depth(v, d)
        links.append((v, anc, rng.choice([1.0, 3.0, 10.0]) * (tree.depth[v] - d)))
    for leaf in tree.leaves():
        links.append((leaf, 0, rng.uniform(20, 200)))
    return TAPInstance.from_links(tree, links)


def e03_tap_approx(
    sizes=(80, 160, 320), seeds=(1, 2, 3), eps: float = 0.5,
    backend: str = "reference",
):
    """TAP quality on G' vs the exact vertical-TAP optimum."""
    rows = []
    for kind in ("erdos_renyi", "adversarial"):
        for n in sizes:
            for seed in seeds:
                if kind == "erdos_renyi":
                    g = make_family_instance("erdos_renyi", n, seed=seed)
                    inst = SolverPlan.for_graph(g).instance(backend)
                else:
                    inst = _adversarial_tap_instance(n, seed)
                fwd, rev = solve_virtual_tap(
                    inst, eps=eps / 2, variant="improved", backend=backend
                )
                opt_prime = exact_vertical_tap(inst.tree, inst.edges)
                w_b = inst.weight_of(rev.b)
                rows.append(
                    {
                        "kind": kind,
                        "n": n,
                        "seed": seed,
                        "virtual_w": w_b,
                        "opt_on_gprime": opt_prime.weight,
                        "ratio_on_gprime": w_b / opt_prime.weight,
                        "bound_2+eps": 2 + eps,
                        "within": w_b <= (2 + eps) * opt_prime.weight + 1e-6,
                    }
                )
    return rows


def e03_tap_vs_milp(n: int = 14, seeds=(1, 2, 3, 4), eps: float = 0.5):
    """Small-instance TAP ratio against the true optimum on G."""
    rows = []
    rng = random.Random(0)
    for seed in seeds:
        plan = SolverPlan.for_graph(
            make_family_instance("cycle_chords", n, seed=seed)
        )
        tree, links = plan.tree, plan.links
        opt = exact_tap_milp(tree, links)
        res = approximate_tap(tree, links, eps=eps)
        rows.append(
            {
                "seed": seed,
                "n": tree.n,
                "opt": opt.weight,
                "algo": res.weight,
                "ratio": res.weight / opt.weight if opt.weight else 1.0,
                "bound_4+eps": 4 + eps,
                "within": res.weight <= (4 + eps) * opt.weight + 1e-6,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E4 — basic (c=4) vs improved (c=2) ablation
# ----------------------------------------------------------------------

def e04_ablation(sizes=(100, 200), seeds=(1, 2, 3), eps: float = 0.5):
    """Run the ablation on adversarial path-heavy instances with tiny
    segments — the regime where coverage actually reaches the c bounds and
    the cleaning phase fires (easy instances never separate the variants)."""
    rows = []
    for n in sizes:
        for seed in seeds:
            inst_src = _adversarial_tap_instance(n, seed)
            inst = TAPInstance(inst_src.tree, inst_src.edges, segment_size=5)
            out = {}
            for variant in ("basic", "improved"):
                fwd, rev = solve_virtual_tap(inst, eps=eps / 4, variant=variant)
                counts = inst.ops.coverage_counts(
                    inst.edges[e].pair for e in rev.b
                )
                max_cov = max(
                    (counts[t] for t in inst.tree.tree_edges() if fwd.y[t] > 0),
                    default=0,
                )
                out[variant] = (inst.weight_of(rev.b), max_cov, len(rev.cleaning_removals))
            rows.append(
                {
                    "n": n,
                    "seed": seed,
                    "w_basic": out["basic"][0],
                    "w_improved": out["improved"][0],
                    "maxcov_basic(<=4)": out["basic"][1],
                    "maxcov_improved(<=2)": out["improved"][1],
                    "cleanings": out["improved"][2],
                    "improvement": out["basic"][0] / max(out["improved"][0], 1e-12),
                }
            )
    return rows


# ----------------------------------------------------------------------
# E5 — Claim 4.7: O(log n) layers
# ----------------------------------------------------------------------

def e05_layering(
    families=("cycle_chords", "grid", "erdos_renyi", "caterpillar", "hub_cycle"),
    sizes=(50, 100, 200, 400, 800),
    seed: int = 1,
):
    rows = []
    for family in families:
        for n in sizes:
            g = make_family_instance(family, n, seed=seed)
            tree = SolverPlan.for_graph(g).tree
            lay = Layering(tree)
            leaves = len(tree.leaves())
            rows.append(
                {
                    "family": family,
                    "n": tree.n,
                    "leaves": leaves,
                    "layers": lay.num_layers,
                    "log2_leaves": math.log2(max(2, leaves)),
                    "layers/log2": lay.num_layers / math.log2(max(2, leaves)),
                    "paths": len(lay.paths),
                }
            )
    return rows


# ----------------------------------------------------------------------
# E6 — Section 3.6.1: unweighted TAP
# ----------------------------------------------------------------------

def e06_unweighted(sizes=(12, 60, 150), seeds=(1, 2, 3)):
    rows = []
    for n in sizes:
        for seed in seeds:
            plan = SolverPlan.for_graph(
                make_family_instance("cycle_chords", n, seed=seed)
            )
            tree = plan.tree
            pairs = [(u, v) for u, v, _ in plan.links]
            res = unweighted_tap(tree, pairs)
            row = {
                "n": tree.n,
                "seed": seed,
                "aug_size": res.size,
                "virtual_size": res.virtual_size,
                "mis_lower_bound": len(res.mis),
                "ratio_on_gprime": res.certified_virtual_ratio,
                "within_2": res.certified_virtual_ratio <= 2 + 1e-9,
            }
            if n <= 16:
                opt = exact_tap_milp(tree, [(u, v, 1.0) for u, v in pairs])
                row["opt_on_g"] = opt.weight
                row["ratio_on_g"] = res.size / opt.weight if opt.weight else 1.0
            else:
                row["opt_on_g"] = float("nan")
                row["ratio_on_g"] = float("nan")
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E7 — Theorem 1.2: shortcut algorithm quality and round regime
# ----------------------------------------------------------------------

def e07_shortcut_algorithm(
    families=("grid", "torus", "ktree2", "erdos_renyi", "lollipop"),
    n: int = 300,
    seed: int = 1,
):
    rows = []
    for family in families:
        g = make_family_instance(family, n, seed=seed)
        res = shortcut_two_ecss(g, seed=seed + 1)
        plan = SolverPlan.for_graph(g)
        seq = greedy_tap(plan.tree, plan.links)
        model = RoundCostModel(res.n, res.diameter)
        rows.append(
            {
                "family": family,
                "n": res.n,
                "D": res.diameter,
                "sqrt_n": model.sqrt_n,
                "SC_pass": res.shortcut_quality,
                "SC/D": res.shortcut_quality / max(1, res.diameter),
                "iters": res.aug.iterations,
                "aug_w": res.aug.weight,
                "greedy_w": seq.weight,
                "aug/greedy": res.aug.weight / max(seq.weight, 1e-12),
            }
        )
    return rows


def e07_shortcut_quality(
    n: int = 400,
    seed: int = 2,
    families=("grid", "torus", "erdos_renyi", "lollipop", "theta"),
):
    """Measured (alpha, beta) per provider on sqrt(n)-part MST partitions."""
    rows = []
    for family in families:
        g = make_family_instance(family, n, seed=seed)
        nn = g.number_of_nodes()
        parts = max(2, math.isqrt(nn))
        partition = mst_fragment_partition(g, parts, seed=seed)
        d = nx.diameter(g)
        row = {"family": family, "n": nn, "D": d, "parts": len(partition)}
        for provider in (SizeThresholdShortcuts(), TreeRestrictedShortcuts()):
            a = provider.assign(g, partition)
            row[f"{provider.name}:a+b"] = a.alpha + a.beta
        row["ratio_tr/(D)"] = row["tree-restricted:a+b"] / max(1, d)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E8 — Theorems 5.1–5.3 tools
# ----------------------------------------------------------------------

def e08_shortcut_tools(sizes=(100, 200, 400, 800), family="grid", seed: int = 1):
    rows = []
    for n in sizes:
        tree = SolverPlan.for_graph(
            make_family_instance(family, n, seed=seed)
        ).tree
        start = time.perf_counter()
        hierarchy = FragmentHierarchy(tree, graph=None)
        tk = ShortcutToolkit(hierarchy)
        desc = tk.descendants_sum([1] * tree.n)
        anc = tk.ancestors_sum([1] * tree.n)
        hld = tk.heavy_light()
        elapsed = time.perf_counter() - start
        ok = (
            desc == tree.subtree_sizes()
            and all(anc[v] == tree.depth[v] + 1 for v in range(tree.n))
        )
        rows.append(
            {
                "n": tree.n,
                "levels": hierarchy.num_levels,
                "log2_n": math.log2(tree.n),
                "levels/log2": hierarchy.num_levels / math.log2(tree.n),
                "partwise_ops": tk.partwise_ops,
                "max_light_list": hld.max_light_list(),
                "correct": ok,
                "secs": elapsed,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E9 — Lemmas 5.4 / 5.5
# ----------------------------------------------------------------------

def e09_subroutines(n: int = 150, trials: int = 200, seed: int = 1):
    plan = SolverPlan.for_graph(
        make_family_instance("erdos_renyi", n, seed=seed)
    )
    tree, links = plan.tree, plan.links
    tk = ShortcutToolkit(FragmentHierarchy(tree))
    det = CoverDetector(tk, seed=seed)
    counter = CoverCounter55(tk)
    rng = random.Random(seed + 1)
    pairs = [(u, v) for u, v, _ in links]
    false_pos = false_neg = checks = 0
    count_errors = 0
    for _ in range(trials):
        s = [p for p in pairs if rng.random() < 0.3]
        got = det.covered_edges(s)
        truth = set()
        for u, v in s:
            truth.update(tree.path_edges(u, v))
        for v in tree.tree_edges():
            checks += 1
            if got[v] and v not in truth:
                false_pos += 1
            if not got[v] and v in truth:
                false_neg += 1
        marked = [rng.random() < 0.4 for _ in range(tree.n)]
        counts = counter.counts(marked, pairs[:30])
        for (u, v), c in zip(pairs[:30], counts):
            if c != sum(1 for e in tree.path_edges(u, v) if marked[e]):
                count_errors += 1
    return [
        {
            "n": n,
            "trials": trials,
            "edge_checks": checks,
            "xor_false_positive": false_pos,
            "xor_false_negative": false_neg,
            "theory_fn_prob": 2.0 ** (-10 * max(1, (n - 1).bit_length())),
            "lemma55_count_errors": count_errors,
        }
    ]


# ----------------------------------------------------------------------
# E10 — Lemma 4.12 iteration bound
# ----------------------------------------------------------------------

def e10_forward_iterations(
    n: int = 200, eps_values=(0.05, 0.1, 0.25, 0.5, 1.0), seeds=(1, 2, 3)
):
    rows = []
    for eps in eps_values:
        worst = 0
        feasible = 0.0
        for seed in seeds:
            inst = SolverPlan.for_graph(
                make_family_instance("erdos_renyi", n, seed=seed)
            ).instance()
            fwd = forward_phase(inst, eps=eps)
            worst = max(worst, fwd.max_iterations)
            from repro.core.certificates import validate_dual_feasibility

            feasible = max(
                feasible, validate_dual_feasibility(inst, fwd.y, eps)
            )
        bound = math.log(n) / math.log1p(eps) + 2
        rows.append(
            {
                "eps": eps,
                "max_iters_per_epoch": worst,
                "lemma412_bound": bound,
                "iters/bound": worst / bound,
                "max_dual_ratio": feasible,
                "dual_ok(<=1+eps)": feasible <= 1 + eps + 1e-9,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E11 — segment decomposition scale
# ----------------------------------------------------------------------

def e11_segments(sizes=(100, 400, 900, 1600), families=("erdos_renyi", "hub_cycle", "grid"), seed=1):
    rows = []
    for family in families:
        for n in sizes:
            tree = SolverPlan.for_graph(
                make_family_instance(family, n, seed=seed)
            ).tree
            dec = SegmentDecomposition(tree)
            stats = dec.stats()
            sq = math.sqrt(tree.n)
            rows.append(
                {
                    "family": family,
                    "n": tree.n,
                    "segments": int(stats["num_segments"]),
                    "segments/sqrt_n": stats["num_segments"] / sq,
                    "max_diam": int(stats["max_diameter"]),
                    "max_diam/sqrt_n": stats["max_diameter"] / sq,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E13 — the batched simulation engine (repro.sim)
# ----------------------------------------------------------------------

def e13_sim_engine(
    families=("grid", "cycle_chords", "erdos_renyi", "hub_cycle"),
    sizes=(100, 400, 900),
    seed: int = 1,
):
    """Differential + performance sweep of the batched CONGEST engine.

    For each instance: run BFS on the legacy per-node ``Network`` and on
    ``repro.sim.BatchedNetwork``, assert identical measured ``RunStats``
    (the differential cross-check), record wall-clock speedup, and compare
    the measured rounds against the Level-M price of one aggregate and the
    Theorem 1.1 bound via :class:`~repro.sim.ScenarioRunner` pricing.
    """
    from repro.model.network import Network as LegacyNetwork
    from repro.model.programs import DistributedBFS
    from repro.sim import BatchedNetwork, ScenarioRunner, default_specs

    bfs_spec = default_specs()[0]
    runner = ScenarioRunner(engine="batched")
    rows = []
    for family in families:
        for n in sizes:
            g = make_family_instance(family, n, seed=seed)
            res = runner.run_one(g, bfs_spec, family=family, seed=seed)
            t0 = time.perf_counter()
            legacy_stats = LegacyNetwork(g).run(DistributedBFS(0))
            t_legacy = time.perf_counter() - t0
            t0 = time.perf_counter()
            batched_stats = BatchedNetwork(g).run(DistributedBFS(0))
            t_batched = time.perf_counter() - t0
            rows.append(
                {
                    "family": family,
                    "n": res.n,
                    "D": res.diameter,
                    "rounds": res.stats.rounds,
                    "messages": res.stats.messages,
                    "priced": res.priced_rounds,
                    "within_price": res.within_price,
                    "within_thm11": res.within_thm11,
                    "stats_equal": legacy_stats == batched_stats,
                    "t_legacy_ms": t_legacy * 1e3,
                    "t_batched_ms": t_batched * 1e3,
                    "speedup": t_legacy / max(t_batched, 1e-9),
                }
            )
    return rows


# ----------------------------------------------------------------------
# E12 — the positioning table (Section 1.1)
# ----------------------------------------------------------------------

def e12_comparison(n: int = 200, seeds=(1, 2), eps: float = 0.5):
    """Head-to-head on the low-diameter / tall-MST instances where the
    paper's round regime separates from [4]'s O(h_MST)."""
    rows = []
    for seed in seeds:
        g = make_family_instance("hub_cycle", n, seed=seed)
        res = approximate_two_ecss(g, eps=eps)
        kt = kt_tecss_3approx(g)
        plan = SolverPlan.for_graph(g)
        tree = plan.tree
        seq = greedy_tap(tree, plan.links)
        mst_w = res.mst_weight
        model = RoundCostModel(res.n, res.diameter)
        h_mst = tree.height
        # round regimes: ours Theorem 1.1; [4] O(h_MST + sqrt n log* n);
        # [8] O((D + sqrt n) log^2 n) randomized.
        rounds_ours = res.modeled_rounds()
        rounds_chd = h_mst + model.sqrt_n * model.log_star_n
        rounds_dory18 = (res.diameter + model.sqrt_n) * model.log_n**2
        rows.append(
            {
                "seed": seed,
                "n": res.n,
                "D": res.diameter,
                "h_MST": h_mst,
                "w_ours(5+eps)": res.weight,
                "w_CHD17(3)": kt.weight,
                "w_greedy(logn)": mst_w + seq.weight,
                "w_all_edges": all_edges_solution(g),
                "w_naive_cover": mst_plus_cheapest_cover(g),
                "rounds_ours": rounds_ours,
                "rounds_CHD17~h": rounds_chd,
                "rounds_Dory18": rounds_dory18,
            }
        )
    return rows
