"""Config-facing factories and the bundled model/driver/game catalogue."""

import math

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games import cli
from ergodic_games.catalog import BUMP_LIP, BUMP_SUP, SQRT2


def test_bump_values():
    assert eg.bump(0.0) == 0.0
    assert eg.bump(1.0) == 0.5
    assert eg.bump(-3.0) == eg.bump(3.0)
    xs = np.linspace(-20, 20, 2001)
    vals = eg.bump(xs)
    assert np.all(vals < BUMP_SUP)
    assert np.all(vals >= 0.0)
    # steepest slope is 3*sqrt(3)/8, attained at x = 1/sqrt(3)
    grads = np.gradient(vals, xs)
    assert np.max(np.abs(grads)) <= BUMP_LIP + 1e-3
    assert BUMP_LIP == pytest.approx(3.0 * math.sqrt(3.0) / 8.0)


def test_make_model_defaults_match_reference(model):
    built = eg.make_model({})
    assert built.lin_drift == model.lin_drift
    assert built.dissipation == model.dissipation
    assert built.sigma == model.sigma == SQRT2
    assert built.x0 == model.x0 == 0.0


def test_make_model_rejects_other_dims():
    # models are one-dimensional, so there is no dimension to set
    for dim in (1, 2):
        with pytest.raises(KeyError, match="unknown model key 'dim'"):
            eg.make_model({"dim": dim})


@pytest.mark.parametrize("key", ["sigma_lo", "sigma_hi", "lin_drfit"])
def test_unknown_model_keys_rejected(key, tmp_path):
    # removed band constants and typos fail loudly instead of being ignored
    with pytest.raises(KeyError, match=f"unknown model key '{key}'; known keys: lin_drift, "):
        eg.make_model({key: 1.0})
    cfg = tmp_path / "model.yaml"
    cfg.write_text(f"model:\n  {key}: 1.0\n")
    for command in ("simulate", "check-assumptions"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command),
                         "--quiet"]) == 1


def test_make_model_tanh_residual_drift():
    m = eg.make_model({"bounded_drift": {"name": "tanh", "scale": 0.3}})
    assert m.bounded_drift_sup == 0.3
    assert m.bounded_drift(2.0) == pytest.approx(0.3 * math.tanh(2.0))
    with pytest.raises(KeyError, match="bounded_drift"):
        eg.make_model({"bounded_drift": {"name": "cubic"}})
    assert eg.make_model({"sigma": 0.5}).sigma == 0.5
    for sigma in ({"name": "constant", "value": 0.5}, "0.5", True):
        with pytest.raises(TypeError, match="model key 'sigma' must be a number"):
            eg.make_model({"sigma": sigma})


def test_make_driver_catalogue():
    for cfg in ({"name": "constant", "value": 2.0},
                {"name": "bump"},
                {"name": "linear_z_plus_bump", "slope": 0.3},
                {"name": "tanh_z_plus_bump", "scale": 0.4},
                {"name": "dominating", "lipschitz": 2.0, "offset": 2.0}):
        d = eg.make_driver(cfg)
        assert np.isfinite(d(0.5, -0.5))
    with pytest.raises(KeyError, match="unknown driver"):
        eg.make_driver({"name": "cubic"})
    with pytest.raises(KeyError):
        eg.make_driver({})


def test_make_growth_driver_constants():
    f, kappa = eg.make_growth_driver({"name": "tanh_z_plus_bump", "scale": 0.8})
    assert kappa == 0.8 + BUMP_SUP
    assert f(1.0, 0.0) == eg.bump(1.0)
    f2, kappa2 = eg.make_growth_driver({"name": "sqrt_z_plus_bump", "slope": 0.6})
    assert kappa2 == 0.3 + BUMP_SUP
    assert f2(0.0, 4.0) == pytest.approx(1.2)
    with pytest.raises(KeyError, match="growth driver"):
        eg.make_growth_driver({"name": "linear_z_plus_bump"})


def test_make_game_names_and_params():
    g = eg.make_game({"name": "quadratic_decoupled", "n_controls": 21})
    assert g.n_players == 2
    assert len(g.grids[0].points) == 21
    g3 = eg.make_game({"name": "three_player_symmetric", "n_controls": 5})
    assert g3.n_players == 3
    with pytest.raises(KeyError, match="unknown game"):
        eg.make_game({"name": "rock_paper_scissors"})
    with pytest.raises(KeyError):
        eg.make_game({})
    # a negative bound would build a descending control grid
    with pytest.raises(ValueError, match="strictly ascending"):
        eg.make_game({"name": "quadratic_decoupled", "control_bound": -1.0})


def test_bundled_games_pass_their_own_checks():
    # construction runs sampled bound checks; reaching here means they hold
    for name in eg.GAME_BUILDERS:
        spec = eg.make_game({"name": name})
        assert spec.cost_sup > 0.0
        assert spec.name == name
    # max |drift_map| over the control grids, derived at construction
    assert [eg.make_game({"name": name}).drift_bound for name in eg.GAME_BUILDERS] == [
        2.0, 2.0, 3.0]


NESTED_TYPOS = [
    (eg.make_model, {"bounded_drift": {"name": "tanh", "scael": 0.3}}, "'scael' of bounded_drift"),
    (eg.make_model, {"bounded_drift": {"scale": 0.3}}, "'scale' of bounded_drift 'zero'"),
    (eg.make_driver, {"name": "linear_z_plus_bump", "slpoe": 0.3}, "known parameters: slope"),
    (eg.make_growth_driver, {"name": "sqrt_z_plus_bump", "slpoe": 3.0},
     "known parameters: slope"),
    (eg.make_game, {"name": "quadratic_decoupled", "n_control": 5},
     "known parameters: n_controls, control_bound"),
]


@pytest.mark.parametrize("factory, cfg, message", NESTED_TYPOS)
def test_unknown_entry_parameters_rejected(factory, cfg, message):
    # a misspelt parameter used to be ignored (or, for a game, raise TypeError)
    with pytest.raises(KeyError, match=message):
        factory(cfg)


def test_unknown_game_parameter_is_a_config_error(tmp_path):
    cfg = tmp_path / "game.yaml"
    cfg.write_text("model: {}\ngrid: {x_min: -4.0, x_max: 4.0, m: 21}\n"
                   "game: {name: quadratic_decoupled, n_control: 5}\n")
    for command in ("solve-game", "check-assumptions"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command),
                         "--quiet"]) == 1
