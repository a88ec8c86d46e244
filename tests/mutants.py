"""The mutation table: hand-made faults that the named tests must catch.

Each mutant replaces one exact text, which occurs once in its file, by
another, and names the test ids that must fail once it is applied.  The
runner copies src/, tests/ and pyproject.toml to a temporary directory,
applies one mutant there, runs its tests with pytest and prints killed
(they fail) or survived (they pass).  It exits 1 if a mutant survived or
its tests could not run.  Standard library only; pytest does not collect
this file, and test_mutants.py checks the table against the sources.

    python tests/mutants.py [NAME ...]

With names it runs only those mutants; an unknown name prints the known
ones and exits 2.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (file, old text, new text, test ids that must fail)
MUTANTS = {
    "min-rows-no-retightening": (
        "src/ipckit/poset.py",
        "                improved = tight = True\n",
        "                improved = True\n",
        ["tests/test_poset.py::test_canonical_code_matches_oracle_on_every_candidate"],
    ),
    "closure-loops-swapped": (
        "src/ipckit/poset.py",
        "    for k in range(n):\n        for i in range(n):\n            if up[i] >> k & 1:\n",
        "    for i in range(n):\n        for k in range(n):\n            if up[i] >> k & 1:\n",
        ["tests/test_poset.py::test_closure_matches_fixpoint_oracle"],
    ),
    # an alias token one character late: errors at it point past it
    "parse-alias-position-one-off": (
        "src/ipckit/formulas.py",
        "tokens.append((_CHARS[c], i))",
        "tokens.append((_CHARS[c], i + (c != _CHARS[c])))",
        ["tests/test_formulas.py::test_parser_matches_the_recursive_descent_oracle"],
    ),
    "parse-implication-groups-left": (
        "src/ipckit/formulas.py",
        "binary(prec if node is Imp else prec + 1)",
        "binary(prec + 1)",
        ["tests/test_formulas.py::test_parser_matches_the_recursive_descent_oracle"],
    ),
    "parse-non-ascii-digits": (
        "src/ipckit/formulas.py",
        'tok.startswith("p") and tok[1:].isascii() and tok[1:].isdigit()',
        'tok.startswith("p") and tok[1:].isdigit()',
        ["tests/test_formulas.py::test_parse_errors_carry_position"],
    ),
    # another random suite: criterion 7's work-unit pin moves
    "random-formula-ops-swapped": (
        "src/ipckit/scenarios.py",
        "(And, Or, Imp)[rng.randrange(3)]",
        "(Or, And, Imp)[rng.randrange(3)]",
        ["tests/test_acceptance.py::test_criterion_07_godel_transfer"],
    ),
    "godel-suite-untruncated": (
        "src/ipckit/scenarios.py",
        "    out = [bw(1), bw(2), kc_axiom()][:count]\n",
        "    out = [bw(1), bw(2), kc_axiom()]\n",
        ["tests/test_semantics.py::test_godel_suite_is_a_prefix_of_the_longest"],
    ),
    "search-seen-image-bit": (
        "src/ipckit/morphisms.py",
        "        for t, bit, up_t in cands.get(s, ()):\n            seen[i] = up_t\n",
        "        for t, bit, up_t in cands.get(s, ()):\n            seen[i] = bit\n",
        ["tests/test_search.py::test_search_walks_the_oracle_walk"],
    ),
    "search-trip-charge-one-short": (
        "src/ipckit/morphisms.py",
        "        meter.spent += nodes\n        raise BudgetExceeded",
        "        meter.spent += nodes - 1\n        raise BudgetExceeded",
        ["tests/test_search.py::test_search_trips_at_every_limit"],
    ),
    "search-cut-child-uncounted": (
        "src/ipckit/morphisms.py",
        "                if hit & bit:\n                    nodes += 1\n",
        "                if hit & bit:\n",
        ["tests/test_search.py::test_search_walks_the_oracle_walk"],
    ),
    "search-tight-test-loosened": (
        "src/ipckit/morphisms.py",
        "        if unhit == last - k:\n",
        "        if unhit >= last - k - 1:\n",
        ["tests/test_search.py::test_search_walks_the_oracle_walk"],
    ),
    # the block ignores the poset: scans of another poset in it share values
    "node-values-kept-across-orders": (
        "src/ipckit/semantics.py",
        "    shared = _block[0] is p and len(domain) ** nvars <= WINDOW",
        "    shared = len(domain) ** nvars <= WINDOW",
        ["tests/test_kernel.py::test_scan_sequences_match_oracle"],
    ),
    # permuted domains of one length have other slot values: a table
    # keyed by the length hands one domain's node values to the other
    "node-values-keyed-by-domain-length": (
        "src/ipckit/semantics.py",
        "(modal, domain, nvars)",
        "(modal, len(domain), nvars)",
        ["tests/test_kernel.py::test_scan_sequences_match_oracle"],
    ),
    "residuation-down-set-without-least": (
        "src/ipckit/heyting.py",
        "        for c in order:\n",
        "        for c in order[1:]:\n",
        ["tests/test_heyting.py::test_residuation_check_agrees_with_pointwise_oracle"],
    ),
    "residuation-cover-push-dropped": (
        "src/ipckit/heyting.py",
        "            for d in covers[c]:\n",
        "            for d in covers[c][1:]:\n",
        ["tests/test_heyting.py::test_residuation_check_agrees_with_pointwise_oracle"],
    ),
    "rn-words-one-short": (
        "src/ipckit/scenarios.py",
        "    for word in _words_upto(size - 2):\n",
        "    for word in _words_upto(size - 3):\n",
        ["tests/test_catalog.py::test_rn_members_match_build_then_filter_oracle"],
    ),
    # without beta pairs a poset of two maximal twins has no quotient
    # onto one point
    "rn-beta-reductions-dropped": (
        "src/ipckit/scenarios.py",
        "    pairs += [1 << x | 1 << y for x in range(p.n) for y in range(x + 1, p.n)\n"
        "              if p.strict_up(x) == p.strict_up(y)]\n",
        "",
        ["tests/test_catalog.py::test_quotient_codes_by_reductions_match_every_epartition"],
    ),
    # a class keeps only its own reductions: quotients two steps down are lost
    "rn-memo-one-level": (
        "src/ipckit/scenarios.py",
        "        if code not in memo:\n            _quotient_codes(q, memo)\n"
        "        codes.update(memo[code])\n",
        "        codes.add(code)\n",
        ["tests/test_catalog.py::test_rn_closure_escape_matches_every_upset_oracle"],
    ),
    "bits-table-over-seven-bits": (
        "src/ipckit/poset.py",
        "_BYTE = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))\n",
        "_BYTE = tuple(tuple(i for i in range(7) if m >> i & 1) for m in range(256))\n",
        ["tests/test_poset.py::test_bits_match_the_generator_oracle"],
    ),
    "bits-table-bound-512": (
        "src/ipckit/poset.py",
        "    if 0 <= mask < 256:\n",
        "    if 0 <= mask < 512:\n",
        ["tests/test_poset.py::test_bits_match_the_generator_oracle"],
    ),
    # the width as the greedy matching alone: on the posets of at most 5
    # points it already gets 6 full widths wrong
    "width-greedy-only": (
        "src/ipckit/poset.py",
        "    for x in tries:\n        _augment(up, mask, owner, x, 0)\n",
        "",
        ["tests/test_poset.py::test_matching_width_matches_the_antichain_oracles_on_every_mask",
         "tests/test_poset.py::test_matching_width_on_full_and_principal_masks",
         "tests/test_poset.py::test_width_memos_against_direct_definitions"],
    ),
    # an augmenting path of one edge only: it never moves a matched point
    "width-augment-one-step": (
        "src/ipckit/poset.py",
        "        if y not in owner or (seen := _augment(up, mask, owner, owner[y], seen)) is None:\n",
        "        if y not in owner:\n",
        ["tests/test_poset.py::test_matching_width_matches_the_antichain_oracles_on_every_mask",
         "tests/test_poset.py::test_matching_width_on_full_and_principal_masks",
         "tests/test_poset.py::test_width_memos_against_direct_definitions"],
    ),
    "algebra-leq-seeded-with-zero": (
        "src/ipckit/heyting.py",
        "    leq = [(1 << len(masks)) - 1] * len(masks)\n",
        "    leq = [0] * len(masks)\n",
        ["tests/test_heyting.py::test_upset_algebra_matches_its_definitions"],
    ),
    "enumeration-orbit-skip-dropped": (
        "src/ipckit/poset.py",
        "            if swap:\n                codes[dmask] = codes[dmask ^ swap]\n                continue\n",
        "",
        ["tests/test_poset.py::test_enumeration_codes_one_candidate_per_orbit"],
    ),
    "twin-key-drops-down-set": (
        "src/ipckit/poset.py",
        "    return [(p.strict_up(x), d & ~(1 << x)) for x, d in enumerate(down)]\n",
        "    return [(p.strict_up(x), 0) for x, d in enumerate(down)]\n",
        ["tests/test_poset.py::test_enumeration_matches_every_candidate_oracle",
         "tests/test_poset.py::test_canonical_code_matches_oracle_on_every_candidate"],
    ),
    "min-rows-direct-order-by-index": (
        "src/ipckit/poset.py",
        "        order = [v for c in range(t) for v in by_color[c]]\n",
        "        order = list(range(n))\n",
        ["tests/test_poset.py::test_canonical_code_matches_oracle_on_every_candidate"],
    ),
    "twin-count-up-set-only": (
        "src/ipckit/poset.py",
        "    t = len(set(twin))\n",
        "    t = len({u for u, d in twin})\n",
        ["tests/test_poset.py::test_canonical_code_matches_oracle_on_every_candidate"],
    ),
    "enumeration-sibling-test-loosened": (
        "src/ipckit/poset.py",
        "            if known is not None and known < own:\n",
        "            if known is not None and known <= own:\n",
        ["tests/test_poset.py::test_enumeration_matches_every_candidate_oracle"],
    ),
    "enumeration-sibling-test-last-point-ignored": (
        "src/ipckit/poset.py",
        "            known = None if dmask & last else sib.get(dmask)\n",
        "            known = sib.get(dmask & ~last)\n",
        ["tests/test_poset.py::test_enumeration_matches_every_candidate_oracle"],
    ),
    "residuation-compared-with-down-c": (
        "src/ipckit/heyting.py",
        "            if mask != down[imp[c]]:\n",
        "            if mask != down[c]:\n",
        ["tests/test_heyting.py::test_residuation_check_agrees_with_pointwise_oracle"],
    ),
    # at size 8 and n 0 a member with a chain tail fits past nmax; at the
    # acceptance parameters (size 8, n 2) the size never binds first
    "rn-chain-tail-bound-reads-size": (
        "src/ipckit/scenarios.py",
        '(("k", size), ("m", nmax))',
        '(("k", size), ("m", size))',
        ["tests/test_catalog.py::test_rn_members_match_build_then_filter_oracle"],
    ),
    "rn-members-one-point-at-size-0": (
        "src/ipckit/scenarios.py",
        "    if size >= 1:\n        add(one_point())\n",
        "    add(one_point())\n",
        ["tests/test_io_cli.py::test_rn_closure_refuses_size_0"],
    ),
    # the chain-extended shape shrinks to a member, so it is an image
    "rn-negative-chain-one-short": (
        "src/ipckit/scenarios.py",
        '                      ("c", chain(nmax + 1))])\n',
        '                      ("c", chain(nmax))])\n',
        ["tests/test_acceptance.py::test_criterion_10_rn_closure"],
    ),
    "failing-instance-poset-dropped": (
        "src/ipckit/scenarios.py",
        "        return detail, None if detail is None else poset, meter.spent, False\n",
        "        return detail, None, meter.spent, False\n",
        ["tests/test_io_cli.py::test_run_scenario_reports_failing_instances"],
    ),
    "dual-restricted-to-every-point": (
        "src/ipckit/heyting.py",
        "down).restrict(primes)",
        "down).restrict((1 << k) - 1)",
        ["tests/test_heyting.py::test_dual_poset_matches_the_filter_oracle"],
    ),
    "epart-new-block-blind-to-itself": (
        "src/ipckit/morphisms.py",
        "        sees.append(s | 1 << new)\n",
        "        sees.append(s)\n",
        ["tests/test_epartitions.py::test_epartitions_match_oracle_on_small_posets"],
    ),
    "epart-member-bit-not-restored": (
        "src/ipckit/morphisms.py",
        "                members[b] ^= 1 << x\n",
        "",
        ["tests/test_epartitions.py::test_epartitions_match_oracle_on_small_posets"],
    ),
    "epartition-cover-block-only": (
        "src/ipckit/morphisms.py",
        "            s |= sees[block[c]]\n",
        "            s |= 1 << block[c]\n",
        ["tests/test_epartitions.py::test_epartitions_match_oracle_on_small_posets"],
    ),
    "epart-blocks-by-mask-value": (
        "src/ipckit/morphisms.py",
        "sorted(members, key=lambda m: m & -m)",
        "sorted(members)",
        ["tests/test_epartitions.py::test_epartitions_match_oracle_on_small_posets"],
    ),
    "poset-text-json-no-final-newline": (
        "src/ipckit/io.py",
        'sort_keys=True, indent=2) + "\\n"',
        "sort_keys=True, indent=2)",
        ["tests/test_io_cli.py::test_cli_catalog_prints_the_poset_text"],
    ),
    "windows-fixed-slots-over-block-rows": (
        "src/ipckit/semantics.py",
        "_held(n, (v,), c * block)",
        "_held(n, (v,), block)",
        ["tests/test_kernel.py::test_domains_wider_than_a_window"],
    ),
    "fast-patterns-one-block": (
        "src/ipckit/semantics.py",
        "    m = len(domain)\n    ones = (1 << rows) - 1\n",
        "    m = len(domain)\n    ones = (1 << m ** k) - 1\n",
        ["tests/test_kernel.py::test_budgets_at_window_edges",
         "tests/test_kernel.py::test_windows_match_the_replicated_pattern_oracle"],
    ),
    "node-values-shared-across-modes": (
        "src/ipckit/semantics.py",
        "(modal, domain, nvars)",
        "(False, domain, nvars)",
        ["tests/test_semantics.py::test_memo_keeps_the_modes_apart"],
    ),
    "node-values-outlive-the-block": (
        "src/ipckit/semantics.py",
        "    finally:\n        _block = outer\n",
        "    finally:\n        pass\n",
        ["tests/test_semantics.py::test_memo_and_node_table_stay_within_bounds",
         "tests/test_semantics.py::test_block_shares_only_its_own_posets_values"],
    ),
    "evaluate-box-miss-zeroed": (
        "src/ipckit/semantics.py",
        "                miss = [ones ^ u for u in memo[node.inner]]\n",
        "                miss = [0 for u in memo[node.inner]]\n",
        ["tests/test_kernel.py::test_variable_free_formulas",
         "tests/test_kernel.py::test_scanner_matches_oracle_on_generated_scans"],
    ),
    "sum-blocks-points-unsorted": (
        "src/ipckit/axioms.py",
        "    order = sorted(range(p.n), key=lambda i: p.up[i].bit_count())\n",
        "    order = range(p.n)\n",
        ["tests/test_axioms.py::test_sum_blocks_match_the_cut_loop_oracle"],
    ),
    "ladder-cover-loop-one-short": (
        "src/ipckit/catalog.py",
        "    for i in range(2, m + 1):\n",
        "    for i in range(2, m):\n",
        ["tests/test_catalog.py::test_ladder_top_segment_is_the_old_ladder_named_t"],
    ),
    "kg-factor-matched-one-segment-up": (
        "src/ipckit/axioms.py",
        "canonical_code(ladder_top_segment(b.n - 1))",
        "canonical_code(ladder_top_segment(b.n))",
        ["tests/test_axioms.py::test_decompose_kg_matches_the_code_set_oracle"],
    ),
    # the profile of a lower block counts the blocks above it, so no host
    # with a factor below the top one decomposes
    "kg-profile-host-upsets": (
        "src/ipckit/axioms.py",
        "sorted((x.up[i] & b).bit_count() for i in _bits(b))",
        "sorted(x.up[i].bit_count() for i in _bits(b))",
        ["tests/test_axioms.py::test_decompose_kg_matches_the_code_set_oracle"],
    ),
    # only the maximal points are peeled: every other point gets height 0
    # and is left out of topdown
    "peel-against-whole-order": (
        "src/ipckit/poset.py",
        "if up[i] & left == 1 << i]:\n",
        "if up[i] & self.full_mask == 1 << i]:\n",
        ["tests/test_poset.py::test_peel_matches_the_sort_oracle"],
    ),
    "search-skip-branch-dropped": (
        "src/ipckit/morphisms.py",
        "        if skip and s not in ups:\n            seen[i] = s\n            return rec(k + 1, hit, unhit)\n",
        "",
        ["tests/test_search.py::test_search_walks_the_oracle_walk"],
    ),
    # a skip dropped after any candidate, not only after the t with
    # up(t) == S: the subtree it drops was not walked before
    "search-skip-dropped-after-any-candidate": (
        "src/ipckit/morphisms.py",
        "        if skip and s not in ups:\n            seen[i] = s\n",
        "        if skip and s not in cands:\n            seen[i] = s\n",
        ["tests/test_search.py::test_skip_walks_answer_as_the_walk_that_skips_twice"],
    ),
    # a tight node that still counts the skip that repeats the t child
    "search-tight-counts-the-duplicate-skip": (
        "src/ipckit/morphisms.py",
        "            if skip and s not in ups:\n                nodes += 1\n",
        "            if skip:\n                nodes += 1\n",
        ["tests/test_search.py::test_search_walks_the_oracle_walk"],
    ),
    "rooted-cache-key-drops-width": (
        "src/ipckit/poset.py",
        "    if max_width is not None and max_width >= size:\n",
        "    if max_width is not None and max_width >= 0:\n",
        ["tests/test_poset.py::test_enumerate_rooted_width_filter"],
    ),
    "rooted-cache-hands-out-its-own-object": (
        "src/ipckit/poset.py",
        "    return list(_rooted(size, max_width))\n",
        "    return _rooted(size, max_width)\n",
        ["tests/test_poset.py::test_enumerate_rooted_width_filter"],
    ),
    "rooted-order-reversed": (
        "src/ipckit/poset.py",
        "for q in enumerate_posets(size - 1)\n",
        "for q in reversed(enumerate_posets(size - 1))\n",
        ["tests/test_poset.py::test_rooted_codes_derived_from_parents"],
    ),
    "rooted-width-filter-strict": (
        "src/ipckit/poset.py",
        "max(1, q.full_width) <= max_width",
        "max(1, q.full_width) < max_width",
        ["tests/test_poset.py::test_enumerate_rooted_width_filter"],
    ),
    "scan-prefix-one-short": (
        "src/ipckit/semantics.py",
        "max(limit, 0) + 1",
        "max(limit, 0)",
        ["tests/test_semantics.py::test_budgeted_scans_match_full_domain_scans"],
    ),
    "worker-runs-wrong-index": (
        "src/ipckit/scenarios.py",
        '_WORKER["instances"][index]',
        '_WORKER["instances"][index - 1]',
        ["tests/test_acceptance.py::test_budget_trips_alike_across_worker_counts"],
    ),
    # the paper's criteria, one side each: a named frame, a formula
    # constructor or a count, broken so that its criterion must fail
    "k5-cover-c-t-moved-to-a": (
        "src/ipckit/catalog.py",
        '[("r", "c"), ("c", "a"), ("r", "d"), ("d", "b"),\n            ("c", "t"), ("b", "t")]',
        '[("r", "c"), ("c", "a"), ("r", "d"), ("d", "b"),\n            ("a", "t"), ("b", "t")]',
        ["tests/test_acceptance.py::test_criterion_04_appendix_k"],
    ),
    "bw2-9-without-y-below-t": (
        "src/ipckit/catalog.py",
        '("n", "y"), ("n", "z"), ("x", "t"), ("y", "t")]),\n    "BW2_10"',
        '("n", "y"), ("n", "z"), ("x", "t")]),\n    "BW2_10"',
        ["tests/test_acceptance.py::test_criterion_03_kracht_bw2"],
    ),
    "g5-without-a-below-t": (
        "src/ipckit/catalog.py",
        '("c", "t"), ("c", "b"),\n            ("a", "t")]),\n    "G6"',
        '("c", "t"), ("c", "b")]),\n    "G6"',
        ["tests/test_acceptance.py::test_criterion_05_appendix_g"],
    ),
    "jankov-empty-image-axiom-dropped": (
        "src/ipckit/axioms.py",
        "    axioms.append(Imp(q(0), BOT))\n",
        "",
        ["tests/test_acceptance.py::test_criterion_08_jankov_oracle"],
    ),
    "subalgebra-closure-without-imp": (
        "src/ipckit/heyting.py",
        "1 << join[y][x]\n                        | 1 << ix[y] | 1 << imp[y][x])\n",
        "1 << join[y][x])\n",
        ["tests/test_acceptance.py::test_criterion_06_duality_counts"],
    ),
    "ym-two-legs": (
        "src/ipckit/catalog.py",
        '    for leg in ("e", "f", "g"):\n',
        '    for leg in ("e", "f"):\n',
        ["tests/test_acceptance.py::test_criterion_09_ym_rigidity"],
    ),
    # the top block goes unchecked, so a poset whose top block is no
    # ladder segment decomposes
    "kg-factors-first-dropped": (
        "src/ipckit/axioms.py",
        "    masks = _block_masks(x)[:-1]\n",
        "    masks = _block_masks(x)[1:-1]\n",
        ["tests/test_acceptance.py::test_criterion_11_kg_structure"],
    ),
    "chain-collapse-target-one-up": (
        "src/ipckit/scenarios.py",
        "(src, gn_trunc(m, nlv), {",
        "(src, gn_trunc(m + 1, nlv), {",
        ["tests/test_acceptance.py::test_criterion_12_pm_constructions"],
    ),
    # the modal side reads -> materially, so an unboxed implication is
    # no longer the strict one and the transfer fails
    "godel-implication-unboxed": (
        "src/ipckit/formulas.py",
        "        return Box(Imp(godel_translate(f.left), godel_translate(f.right)))\n",
        "        return Imp(godel_translate(f.left), godel_translate(f.right))\n",
        ["tests/test_acceptance.py::test_criterion_07_godel_transfer"],
    ),
    "bw-one-disjunct-short": (
        "src/ipckit/formulas.py",
        "disj(Var(j) for j in range(n + 1) if j != i)",
        "disj(Var(j) for j in range(n) if j != i)",
        ["tests/test_acceptance.py::test_criterion_01_sobolev_width",
         "tests/test_acceptance.py::test_criterion_02_bw_subframe_triangle"],
    ),
    # without its beta(P2) filter appendix-G checks 344 instances, not 208
    "appendix-among-dropped": (
        "src/ipckit/scenarios.py",
        '_appendix("P3", "G", 6, among="P2")',
        '_appendix("P3", "G", 6)',
        ["tests/test_acceptance.py::test_criterion_05_appendix_g"],
    ),
    # valid on every reflexive frame, like grz itself, so criterion 7
    # cannot tell them apart; only the shape test sees it
    "grz-inner-box-dropped": (
        "src/ipckit/formulas.py",
        "    return Imp(Box(Imp(Box(Imp(p, Box(p))), p)), Box(p))\n",
        "    return Imp(Box(Imp(Imp(p, Box(p)), p)), Box(p))\n",
        ["tests/test_formulas.py::test_grz_axiom_shape"],
    ),
}


def run(name):
    """'killed', 'survived' or 'error' for one mutant."""
    path, old, new, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        text = (tmp / path).read_text()
        if text.count(old) != 1:
            return "error"
        (tmp / path).write_text(text.replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, capture_output=True, text=True)
    # pytest exits 1 when a test failed, 0 when all passed, else on errors
    return {1: "killed", 0: "survived"}.get(done.returncode, "error")


def main(argv=None):
    """Run the named mutants, or all of them; 2 on an unknown name."""
    names = sys.argv[1:] if argv is None else argv
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant {', '.join(unknown)}; known:", *MUTANTS, sep="\n  ")
        return 2
    bad = 0
    for name in names or MUTANTS:
        outcome = run(name)
        print(f"{outcome:8} {name}", flush=True)
        bad += outcome != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
