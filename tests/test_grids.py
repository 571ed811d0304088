"""Grid construction, inner-product weights, and spinor-field plumbing."""
import numpy as np
import pytest

from adsdirac.grids import (
    BoundaryGraded,
    Grid,
    SpinorField,
    gaussian_packet,
    make_grid,
)


class TestUniform:
    def test_nodes_inside_and_increasing(self):
        g = make_grid(-5.0, 64)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > -5.0 and g.nodes[-1] < 0.0

    def test_cell_centered_staggering(self):
        g = make_grid(-8.0, 128)
        h = 8.0 / 128
        assert g.nodes[-1] == pytest.approx(-h / 2, rel=1e-14)
        assert g.nodes[0] == pytest.approx(-8.0 + h / 2, rel=1e-14)

    def test_weights_sum_to_length(self):
        g = make_grid(-20.0, 256)
        assert np.sum(g.weights) == pytest.approx(20.0, abs=1e-12)

    def test_needs_count_or_width(self):
        with pytest.raises(ValueError):
            make_grid(-5.0)

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            make_grid(-5.0, 8)


class TestBoundaryGraded:
    def test_min_spacing_at_boundary_end(self):
        g = make_grid(-6.0, policy=BoundaryGraded(h_min=1e-4, ratio=1.05))
        d = np.diff(g.nodes)
        assert np.argmin(d) == d.size - 1
        assert d[-1] == pytest.approx(1e-4, rel=0.05)

    def test_weights_sum_to_length(self):
        g = make_grid(-6.0, policy=BoundaryGraded(h_min=1e-3, ratio=1.1))
        assert np.sum(g.weights) == pytest.approx(6.0, abs=1e-12)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            BoundaryGraded(h_min=1e-3, ratio=1.5)
        with pytest.raises(ValueError):
            BoundaryGraded(h_min=1e-3, ratio=0.9)

    def test_h_max_caps_widths(self):
        g = make_grid(-30.0, policy=BoundaryGraded(h_min=1e-3, ratio=1.2, h_max=0.25))
        edges_widths = np.diff(np.concatenate([[g.x_min], 0.5 * (g.nodes[1:] + g.nodes[:-1]), [0.0]]))
        assert np.max(edges_widths) <= 1.5 * 0.25 + 1e-12

    def test_rejects_bad_h_min(self):
        with pytest.raises(ValueError):
            BoundaryGraded(h_min=0.0)

    def test_too_short_interval(self):
        with pytest.raises(ValueError):
            make_grid(-0.5, policy=BoundaryGraded(h_min=0.2, ratio=1.0))


class TestGridValidation:
    def test_rejects_positive_x_min(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 64)

    def test_rejects_unsorted_nodes(self):
        nodes = np.linspace(-4.9, -0.1, 32)
        w = np.full(32, 0.15)
        with pytest.raises(ValueError):
            Grid(-5.0, nodes[::-1].copy(), w)

    def test_rejects_nonpositive_weights(self):
        nodes = np.linspace(-4.9, -0.1, 32)
        w = np.full(32, 0.15)
        w[3] = 0.0
        with pytest.raises(ValueError):
            Grid(-5.0, nodes, w)

    def test_nodes_frozen(self):
        g = make_grid(-5.0, 32)
        with pytest.raises(ValueError):
            g.nodes[0] = -4.0


class TestSpinorField:
    def test_shape_validation(self):
        g = make_grid(-5.0, 32)
        with pytest.raises(ValueError):
            SpinorField(g, np.zeros((3, 32)))

    def test_norm_matches_manual(self):
        g = make_grid(-5.0, 64)
        rng = np.random.default_rng(1)
        v = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
        psi = SpinorField(g, v)
        manual = np.sqrt(np.sum(g.weights * np.sum(np.abs(v) ** 2, axis=0)))
        assert psi.norm() == pytest.approx(manual, rel=1e-14)

    def test_inner_sesquilinear(self):
        g = make_grid(-5.0, 48)
        rng = np.random.default_rng(2)
        u = SpinorField(g, rng.normal(size=(4, 48)) + 1j * rng.normal(size=(4, 48)))
        v = SpinorField(g, rng.normal(size=(4, 48)) + 1j * rng.normal(size=(4, 48)))
        z = 0.7 - 1.3j
        lhs = SpinorField(g, z * u.values).inner(v)
        assert lhs == pytest.approx(np.conj(z) * u.inner(v), rel=1e-12)
        assert u.inner(v) == pytest.approx(np.conj(v.inner(u)), rel=1e-12)

    def test_gaussian_normalized(self):
        g = make_grid(-10.0, 256)
        psi = gaussian_packet(g, -4.0, 0.3, components=(1, 2j, 0, -1))
        assert psi.norm() == pytest.approx(1.0, rel=1e-13)

    def test_zero_packet_rejected(self):
        g = make_grid(-10.0, 256)
        with pytest.raises(ValueError):
            gaussian_packet(g, -4.0, 0.3, components=(0, 0, 0, 0))
