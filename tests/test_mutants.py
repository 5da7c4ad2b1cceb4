"""Mutant table: each closed-form formula, deliberately broken, is caught.

Each row replaces every module binding of one formula inside the package (no
source rewriting) and runs only the acceptance checks that must then FAIL
(mutation testing: DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978).  A
row passes when none of its checks survives the mutant.
"""

import sys

import numpy as np
import pytest

from geodexp import deviations, haar, manifolds, suites
from geodexp.config import default_config

_RIGHT = haar.right_exponent
_LEFT = haar.left_exponent
_ACT = deviations.act_diffeo
_RIEMANN = manifolds.riemann_from


def _left_ricci_over_10(*args, **kwargs):
    divergence, grad_product, ricci = _LEFT(*args, **kwargs)
    return divergence, grad_product, ricci / 10.0


def _series_gamma_gamma_once(gamma, dgamma, v):
    """series_terms with the Gamma Gamma coefficient 2 -> 1."""
    second = -0.5 * np.einsum("...abc,...b,...c->...a", gamma, v, v)
    if dgamma is None:
        return second, None
    coeff = (-np.einsum("...dabc->...abcd", dgamma)
             + np.einsum("...ade,...ebc->...abcd", gamma, gamma))
    return second, np.einsum("...abcd,...b,...c,...d->...a", coeff, v, v, v) / 6.0


def _act_diffeo_double_second_form_derivative(dev, eta, order=3):
    """act_diffeo with its second_form_derivative term counted twice."""
    out = _ACT(dev, eta, order=order)
    extra = out.terms.get("second_form_derivative")
    if extra is None:
        return out
    return deviations.DeviationField(
        out.background, out.samples + extra, out.scale,
        dict(out.terms, second_form_derivative=2.0 * extra))


def _christoffel_plus(h_inv, dh):
    """christoffel_from with +d_d h_bc in place of -d_d h_bc."""
    return 0.5 * (np.einsum("...ad,...bdc->...abc", h_inv, dh)
                  + np.einsum("...ad,...cdb->...abc", h_inv, dh)
                  + np.einsum("...ad,...dbc->...abc", h_inv, dh))


def _group_product_quarter(v1, v2, d1, d2, riemann):
    """group_product with 1/4 R (v2 + v1/2) v2 v1 in place of 1/3."""
    return (v1 + v2
            + np.einsum("...b,...ab->...a", v1, d1)
            + 0.5 * np.einsum("...b,...c,...abc->...a", v1, v1, d2)
            + np.einsum("...abcd,...b,...c,...d->...a", riemann,
                        v2 + 0.5 * v1, v2, v1) / 4.0)


def _dchristoffel_chain_half(h_inv, dh, ddh):
    """dchristoffel_from with its d(h^-1) chain-rule term halved."""
    dh_inv = -np.einsum("...af,...cfg,...ge->...cae", h_inv, dh, h_inv)
    bracket = np.einsum("...bed->...ebd", dh) + np.einsum("...deb->...ebd", dh) - dh
    dbracket = (np.einsum("...cbed->...cebd", ddh) + np.einsum("...cdeb->...cebd", ddh)
                - ddh)
    return 0.5 * (0.5 * np.einsum("...cae,...ebd->...cabd", dh_inv, bracket)
                  + np.einsum("...ae,...cebd->...cabd", h_inv, dbracket))


def _riemann_gamma_gamma_plus(gamma, dgamma):
    """riemann_from with + Gamma^a_{de} Gamma^e_{bc} in place of -."""
    return _RIEMANN(gamma, dgamma) + 2.0 * np.einsum("...ade,...ebc->...abcd", gamma, gamma)


MUTANTS = [
    pytest.param(haar, "right_exponent", lambda *a, **k: -_RIGHT(*a, **k), ("A4",),
                 id="right_exponent-sign"),
    pytest.param(haar, "left_exponent", _left_ricci_over_10, ("A4",),
                 id="left_exponent-ricci-over-10"),
    pytest.param(manifolds, "series_terms", _series_gamma_gamma_once, ("A1", "A5"),
                 id="series_terms-gamma-gamma-1"),
    pytest.param(manifolds, "christoffel_from", _christoffel_plus, ("A1", "A2", "A3"),
                 id="christoffel_from-plus-dh"),
    pytest.param(deviations, "act_diffeo", _act_diffeo_double_second_form_derivative,
                 ("A7",), id="act_diffeo-second-form-derivative-twice"),
    pytest.param(manifolds, "group_product", _group_product_quarter, ("A2", "A4"),
                 id="group_product-curvature-one-quarter"),
    pytest.param(manifolds, "dchristoffel_from", _dchristoffel_chain_half, ("A1", "A2"),
                 id="dchristoffel_from-chain-rule-half"),
    pytest.param(manifolds, "riemann_from", _riemann_gamma_gamma_plus, ("A2", "A4", "A5"),
                 id="riemann_from-gamma-gamma-plus"),
    # A4 fits one slope over all scales; a 1/5 coefficient leaves a residual
    # that still falls at slope 3.53, above the 2.7 bound
    pytest.param(haar, "right_exponent", lambda *a, **k: _RIGHT(*a, **k) * 6.0 / 5.0,
                 ("A4",), id="right_exponent-one-fifth",
                 marks=pytest.mark.xfail(strict=True, reason="survives A4 (slope 3.53)")),
]


@pytest.mark.parametrize("owner, name, mutant, must_fail", MUTANTS)
def test_mutant_fails_its_checks(monkeypatch, owner, name, mutant, must_fail):
    original = getattr(owner, name)
    modules = [mod for modname, mod in list(sys.modules.items())
               if modname.startswith("geodexp") and vars(mod).get(name) is original]
    assert owner in modules
    for mod in modules:
        monkeypatch.setattr(mod, name, mutant)
    monkeypatch.setitem(suites.SUITES, "mutant", list(must_fail))
    report = suites.run_suite(default_config(), "mutant")
    assert [c.id for c in report.checks] == list(must_fail)
    survivors = [c.line() for c in report.checks if c.passed]
    assert not survivors, survivors
