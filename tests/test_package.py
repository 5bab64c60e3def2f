"""The package surface: each module's ``__all__`` is the one declaration of its
public names, and ``anisolab`` re-exports them all."""

import importlib
import subprocess
import sys

import anisolab

MODULES = ("config", "diagnostics", "kinetic", "model", "quadrature", "solver")

# Every name the package exported when it listed them by hand, by declaring module.
LISTED = {
    "config": ["ConfigError", "ExperimentConfig", "parse_config", "serialize_config",
               "default_config", "make_model", "make_grid", "make_scheme", "make_sampling",
               "make_initial", "lcg_values"],
    "diagnostics": ["mean", "l1_to_constant", "l2_energy", "parabolic_dissipation", "audit",
                    "decay_summary", "refinement_study", "AuditTolerances", "AuditReport",
                    "DecaySummary", "RefinementTable"],
    "kinetic": ["chi", "entropy_from_kinetic", "entropy_flux_from_kinetic", "FrequencyPoint",
                "SamplingPlan", "symbol_denominator", "omega_at", "degeneracy_set_measure",
                "ConditionReport", "check_condition"],
    "model": ["ModelError", "NotPSDError", "ModelSpec", "ModelValidationReport", "evaluate",
              "validate_model", "preset", "list_presets", "polynomial_model"],
    "quadrature": ["QuadratureError", "adaptive_quadrature"],
    "solver": ["PeriodicGrid", "CellField", "SchemeConfig", "DiagnosticsRow", "Trajectory",
               "RunStats", "BlowUpError", "ConfigurationError", "init_field", "hyperbolic_div",
               "diffusion_div", "stable_dt", "step", "run", "run_lockstep"],
}


def _module(name):
    return importlib.import_module(f"anisolab.{name}")


def test_every_listed_name_resolves_to_its_modules_object():
    assert sum(map(len, LISTED.values())) == 58
    assert [(m, n) for m, names in LISTED.items() for n in names if n not in anisolab.__all__
            or getattr(anisolab, n) is not getattr(_module(m), n)] == []


def test_the_package_all_is_the_version_then_each_modules_all():
    assert anisolab.__all__ == ["__version__"] + [
        n for m in MODULES for n in _module(m).__all__]
    assert len(set(anisolab.__all__)) == len(anisolab.__all__)
    assert all(getattr(anisolab, n) is getattr(_module(m), n)
               for m in MODULES for n in _module(m).__all__)


def test_no_name_is_declared_by_two_modules():
    declared = [n for m in MODULES + ("cli",) for n in _module(m).__all__]
    assert len(set(declared)) == len(declared)


def test_the_cli_loads_the_package_and_its_seven_modules():
    script = "import sys, anisolab.cli; print(*sorted(m for m in sys.modules if 'anisolab' in m))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    want = ["anisolab"] + [f"anisolab.{m}" for m in sorted(MODULES + ("cli",))]
    assert proc.stdout.split() == want
