import importlib

import cartanbal

_MODULES = ("catalog", "exactnum", "wallach", "moments", "balanced", "calabi", "epsilon", "errors")

# the public names of release 0.1.0, each still exported from the package
_RELEASED = """
__version__ Family CartanDomain make_domain ball parse_domain enumerate_catalog
parse_rational rising LinearFactor FactoredRational WallachSet wallach_set
cartan_projectively_induced hartogs_projective_failure hartogs_projectively_induced
corollary_witness MomentRatio block_lengths moment_ratio moment_converges HartogsSpec
BalancedVerdict cartan_balanced hartogs_necessary final_quantity norm_chain_ratio
hartogs_balanced ScanRow balanced_scan CorollaryRow CorollaryReport corollary_scan
multi_index_enumerate ball_h_coefficients ImmersionCoefficients build_immersion
PullbackCheck verify_pullback WeightedBasisNorms EpsilonReport DiscGrid
ball_monomial_norms epsilon_ball epsilon_point_ball hartogs_disc_norms
epsilon_hartogs_disc epsilon_point_hartogs constancy_verdict CartanbalError
InvalidSizeError DomainParseError NonpositiveParameterError PoleError
BallNotAllowedError PreconditionError InternalConsistencyError
SampleOutsideDomainError TrivialSpaceError
""".split()


def test_package_exports_each_module_all():
    modules = [importlib.import_module(f"cartanbal.{name}") for name in _MODULES]
    union = ["__version__"] + [name for module in modules for name in module.__all__]
    assert cartanbal.__all__ == union
    assert len(set(cartanbal.__all__)) == len(cartanbal.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(cartanbal, name) is getattr(module, name), (module.__name__, name)
    assert len(_RELEASED) == 59
    assert set(_RELEASED) <= set(cartanbal.__all__)
    assert {"REASON_OK", "REASON_M_DEPENDENCE", "SPREAD_CONSTANT"} <= set(cartanbal.__all__)
