"""The package's public names: a fixed list, each one a module's export."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import circlepol

PUBLIC = [
    "CheckResult", "Configuration", "ExactPolynomial", "InequalityReport",
    "Kernel", "OptimizeOptions", "OptimizeResult", "PolarizationResult",
    "RestartRecord", "StrictnessReport", "TWO_PI", "TransportPlan",
    "ValidationReport", "asymptotic_ratio", "check_pair_inequality",
    "config_from_gaps", "config_from_json", "dominant_term",
    "energy_equally_spaced", "equally_spaced", "exact_polarization_polynomial",
    "load_config_file", "log_kernel", "maximize_polarization", "min_curve",
    "minimum_on_arc", "perturbation_test", "polarization",
    "polarization_via_energy", "potential_profile", "potential_values",
    "power_kernel", "riesz_kernel", "sinc_power_coefficients",
    "solve_gap_system", "solve_transport", "validate_kernel",
    "zeta_even_exact", "zeta_real",
]


def test_the_package_exports_exactly_the_listed_names():
    assert sorted(circlepol.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(circlepol, name) is not None


def test_every_module_export_is_a_package_export():
    for module in (m.name for m in pkgutil.iter_modules(circlepol.__path__)
                   if not m.name.startswith("_")):
        mod = importlib.import_module(f"circlepol.{module}")
        for name in getattr(mod, "__all__", ()):
            assert name in circlepol.__all__, (module, name)
            assert getattr(circlepol, name) is getattr(mod, name)


def test_kernels_and_configurations_have_one_spelling_per_operation():
    # a kernel is evaluated by eval, a separation is min(gaps)
    assert not callable(circlepol.riesz_kernel(2))
    assert not hasattr(circlepol.equally_spaced(3), "separation")


def test_a_kernel_has_one_derivatives_field():
    # f' and f'' come from one callable: a second field for either would
    # let a kernel state f' twice, or declare one without the other
    fields = [f.name for f in dataclasses.fields(circlepol.Kernel) if f.init]
    assert fields == ["fn", "value_at_zero", "label", "derivatives"]


def test_derivatives_are_read_in_one_method_and_the_validator():
    # every pass takes (f', f'') from Kernel._slope_and_curvature, which
    # gives a kernel without derivatives a difference quotient and f'' =
    # +inf; a read anywhere else would fork the evaluation path again
    reads = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "derivatives"
                and isinstance(node.ctx, ast.Load)):
            reads.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(pathlib.Path(circlepol.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    assert sorted(reads) == ["kernels.Kernel._slope_and_curvature",
                             "kernels.validate_kernel"]
