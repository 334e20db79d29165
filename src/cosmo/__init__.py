"""Exact surgery invariants for knots and 2-component links.

Everything is computed in exact rational arithmetic: Dedekind sums, Conway
polynomials (skein recursion on planar diagrams, or determinants of Seifert
matrices), Casson-Walker values of Dehn surgeries, Casson-Gordon values of
knot surgeries, and the cosmetic-surgery obstructions built from them.

Names load on first use (PEP 562): ``import cosmo`` loads no compute module,
and ``cosmo.Slope`` or ``from cosmo import Slope`` imports ``cosmo.arith``
then.  A one-shot command pays only for the modules it calls.
"""

import importlib

# every submodule and every public name -> the submodule it is loaded from
_HOME = {
    "arith": "arith",
    "casson_walker": "casson_walker",
    "cli": "cli",
    "links": "links",
    "obstructions": "obstructions",
    "seifert": "seifert",
    "Q": "arith",
    "Slope": "arith",
    "sawtooth": "arith",
    "dedekind_sum_naive": "arith",
    "dedekind_sum_fast": "arith",
    "dedekind_symbol": "arith",
    "LinkSurgeryInvariants": "arith",
    "v3": "arith",
    "Crossing": "links",
    "LinkDiagram": "links",
    "DiagramError": "links",
    "ConwayPoly": "links",
    "conway_polynomial": "links",
    "linking_number": "links",
    "invariants_from_diagram": "links",
    "braid_closure": "links",
    "torus2_diagram": "links",
    "pretzel_diagram": "links",
    "parse_pd": "links",
    "format_pd": "links",
    "SeifertMatrix": "seifert",
    "seifert_torus2": "seifert",
    "conway_from_seifert": "seifert",
    "alexander_second_derivative": "seifert",
    "levine_tristram_signature": "seifert",
    "total_p_signature": "seifert",
    "casson_gordon_tau": "seifert",
    "parse_seifert_matrix": "seifert",
    "LinkingMatrix2": "casson_walker",
    "SurgeryResult": "casson_walker",
    "linking_matrix": "casson_walker",
    "signature_2x2": "casson_walker",
    "casson_walker_link_surgery": "casson_walker",
    "casson_boyer_lines": "casson_walker",
    "lambda_w_from_lambda": "casson_walker",
    "ObstructionReport": "obstructions",
    "purely_cosmetic_candidates_ihs": "obstructions",
    "purely_cosmetic_obstruction_bl": "obstructions",
    "chirally_cosmetic_obstruction_ihs": "obstructions",
    "purely_cosmetic_quadratic": "obstructions",
    "purely_cosmetic_obstruction_thm4": "obstructions",
    "chirally_cosmetic_obstruction": "obstructions",
    "pretzel_analysis": "obstructions",
    "pretzel_a3_closed_form": "obstructions",
}

__all__ = [name for name, home in _HOME.items() if name != home]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    if home == name:
        return module  # importing a submodule binds it on the package already
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
