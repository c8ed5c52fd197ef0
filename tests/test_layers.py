"""Module container and layer behavior: registration, checkpoint state,
initialization conventions, and gradient checks for each layer type."""

import numpy as np
import pytest

from parastream import autodiff as ad
from parastream import layers as ly
from parastream.autodiff import Tensor
from parastream.decoder import PagNet

from helpers import gradcheck, projection_loss

GRAD_TOL = 1e-4


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestModule:
    def test_registration_and_traversal(self):
        class Inner(ly.Module):
            def __init__(self, rng):
                super().__init__()
                self.lin = ly.Linear(3, 2, rng)

        class Outer(ly.Module):
            def __init__(self, rng):
                super().__init__()
                self.inner = Inner(rng)
                self.scale = Tensor(np.ones(1), requires_grad=True)

        model = Outer(make_rng())
        names = [n for n, _ in model.named_parameters()]
        assert names == ["scale", "inner.lin.weight", "inner.lin.bias"]
        assert len(model.parameters()) == 3

    def test_default_model_registers_every_tensor_once(self):
        # parameters() walks named_parameters() without a dedupe, which
        # holds while no tensor is registered under two names
        from parastream.pipeline import ModelConfig, SemanticModel

        model = SemanticModel(ModelConfig())
        params = [p for _, p in model.named_parameters()]
        assert len(params) == 166
        assert len({id(p) for p in params}) == len(params)
        assert [id(p) for p in model.parameters()] == [id(p) for p in params]

    def test_state_dict_round_trip(self):
        lin = ly.Linear(4, 3, make_rng(1))
        state = lin.state_dict()
        fresh = ly.Linear(4, 3, make_rng(2))
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(fresh.weight.data, lin.weight.data)

    def test_state_dict_shape_mismatch(self):
        lin = ly.Linear(4, 3, make_rng(1))
        state = lin.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            lin.load_state_dict(state)

    def test_state_dict_missing_key(self):
        lin = ly.Linear(4, 3, make_rng(1))
        with pytest.raises(KeyError, match="missing"):
            lin.load_state_dict({"weight": lin.weight.data})

    def test_zero_grad(self):
        lin = ly.Linear(2, 2, make_rng(3))
        out = lin(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_frozen_restores_every_flag(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2))
        with ly.frozen([a, b]):
            assert not a.requires_grad and not b.requires_grad
            assert not (a * 2.0).requires_grad
        assert a.requires_grad and not b.requires_grad
        with pytest.raises(KeyError):
            with ly.frozen([a]):
                raise KeyError("inside")
        assert a.requires_grad

    def test_tuple_of_modules_registers_children(self):
        class Stack(ly.Module):
            def __init__(self):
                super().__init__()
                self.blocks = tuple(ly.Linear(2, 2, make_rng(i)) for i in range(3))
                self.sizes = (2, 2)
                self.none = ()

        stack = Stack()
        params = [p for block in stack.blocks for p in (block.weight, block.bias)]
        names = [n for n, _ in stack.named_parameters()]
        assert names == [f"blocks.{i}.{leaf}" for i in range(3) for leaf in ("weight", "bias")]
        assert [id(p) for p in stack.parameters()] == [id(p) for p in params]
        assert list(stack.state_dict()) == names
        with ly.frozen(stack.parameters()):
            assert not any(p.requires_grad for p in params)
        assert all(p.requires_grad for p in params)
        # a tuple of non-modules, or an empty one, stays a plain attribute
        assert stack.sizes == (2, 2) and stack.none == ()
        assert list(stack._children) == ["blocks.0", "blocks.1", "blocks.2"]


class TestAstypeCache:
    """A tensor keeps its last cast and hands the same array out again
    until its data is rebound or its version bumped; while it needs no
    gradient, the same cast tensor."""

    def test_cast_is_kept_until_the_weight_state_changes(self):
        lin = ly.Linear(3, 2, make_rng(5))

        def cast():
            return lin.weight.astype(np.float32).data

        first = cast()
        assert first.dtype == np.float32 and cast() is first
        lin.weight.version += 1
        bumped = cast()
        assert bumped is not first and cast() is bumped
        lin.weight.data = lin.weight.data * 2.0
        rebound = cast()
        assert rebound is not bumped
        np.testing.assert_array_equal(rebound, lin.weight.data.astype(np.float32))
        lin.load_state_dict({"weight": np.ones((3, 2)), "bias": np.zeros(2)})
        assert cast() is not rebound
        np.testing.assert_array_equal(cast(), np.ones((3, 2), np.float32))

    def test_frozen_weight_gets_its_kept_cast_tensor(self):
        lin = ly.Linear(3, 2, make_rng(5))
        with ly.frozen(lin.parameters()):
            first = lin.weight.astype(np.float32)
            assert lin.weight.astype(np.float32) is first
            lin.weight.version += 1
            bumped = lin.weight.astype(np.float32)
            assert bumped is not first and lin.weight.astype(np.float32) is bumped
            lin.weight.data = lin.weight.data * 2.0
            rebound = lin.weight.astype(np.float32)
            assert rebound is not bumped
        np.testing.assert_array_equal(rebound.data, lin.weight.data.astype(np.float32))
        # requiring grad again, each call is a new output with its own edge
        live = lin.weight.astype(np.float32)
        assert live is not rebound and live.requires_grad and live.data is rebound.data

    def test_in_place_write_without_a_bump_stays_stale(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        first = w.astype(np.float32).data
        w.data[0, 0] = 7.0
        assert w.astype(np.float32).data is first and first[0, 0] == 1.0
        w.version += 1
        assert w.astype(np.float32).data[0, 0] == 7.0

    def test_kept_cast_still_records_its_edge(self):
        w = Tensor(np.array([1.0, 2.0 + 2.0**-30]), requires_grad=True)
        narrow = [w.astype(np.float32) for _ in range(2)]
        assert narrow[0].data is narrow[1].data
        for t in narrow:
            assert t.requires_grad
            (t * 3.0).sum().backward()
        assert w.grad.dtype == np.float64
        np.testing.assert_array_equal(w.grad, [6.0, 6.0])
        with ly.frozen([w]):
            assert not w.astype(np.float32).requires_grad


def _layer_cases():
    """(layer factory(rng), inputs) for every layer that casts its
    parameters to its input's dtype; the inputs' arrays take the dtype
    under test."""
    rng = make_rng(30)
    image = rng.standard_normal((2, 4, 6, 6))
    other = rng.standard_normal((2, 4, 6, 6))
    rows = rng.standard_normal((2, 5, 4))
    cases = {
        "conv2d": (lambda r: ly.Conv2d(4, 3, 3, r), (image,)),
        "conv2d-stride2": (lambda r: ly.Conv2d(4, 3, 3, r, stride=2), (image,)),
        "conv_transpose2d": (lambda r: ly.ConvTranspose2d(4, 3, r), (image,)),
        "linear": (lambda r: ly.Linear(4, 3, r), (rows,)),
        "gdn": (lambda r: ly.GDN(4), (image,)),
        "igdn": (lambda r: ly.GDN(4, inverse=True), (image,)),
        "prelu": (lambda r: ly.PReLU(4), (image,)),
        "pagnet": (lambda r: PagNet(4, r), (image, other, 7.0)),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


class TestInputDtypeRule:
    """A layer runs in the dtype of its input: on float32 its output is,
    byte for byte, that of a twin whose parameters are float32 copies; on
    float64 every cast is the parameter itself."""

    @staticmethod
    def build(factory):
        layer = factory(make_rng(31))
        noise = make_rng(32)
        layer.load_state_dict(
            {
                n: p.data + 0.1 * noise.standard_normal(p.data.shape)
                for n, p in layer.named_parameters()
            }
        )
        return layer

    @staticmethod
    def run(layer, inputs, dtype):
        return layer(*(Tensor(a.astype(dtype)) if np.ndim(a) else a for a in inputs))

    @pytest.mark.parametrize("factory, inputs", _layer_cases())
    def test_narrow_input_matches_narrow_weights(self, factory, inputs):
        layer, twin = self.build(factory), self.build(factory)
        for p in twin.parameters():
            p.data = p.data.astype(np.float32)
        arrays = [p.data for p in layer.parameters()]
        out = self.run(layer, inputs, np.float32)
        want = self.run(twin, inputs, np.float32)
        assert out.data.dtype == want.data.dtype == np.float32
        assert out.data.tobytes() == want.data.tobytes()
        assert all(p.data is a for p, a in zip(layer.parameters(), arrays))

    @pytest.mark.parametrize("factory, inputs", _layer_cases())
    def test_float64_input_casts_nothing(self, factory, inputs, monkeypatch):
        layer = self.build(factory)
        casts = []
        astype = Tensor.astype

        def spy(t, dtype):
            out = astype(t, dtype)
            casts.append(out is t)
            return out

        monkeypatch.setattr(Tensor, "astype", spy)
        out = self.run(layer, inputs, np.float64)
        assert out.data.dtype == np.float64
        assert casts and all(casts)


class TestInitialization:
    def test_conv_glorot_bound(self):
        conv = ly.Conv2d(8, 16, 3, make_rng(4))
        bound = np.sqrt(6.0 / (8 * 9 + 16 * 9))
        assert np.all(np.abs(conv.weight.data) <= bound)
        assert conv.weight.data.std() > 0.1 * bound
        np.testing.assert_array_equal(conv.bias.data, np.zeros(16))

    def test_gdn_init_values(self):
        gdn = ly.GDN(4)
        beta = gdn.beta_raw.data**2 + ly.GDN_FLOOR
        gamma = gdn.gamma_raw.data**2 + ly.GDN_FLOOR
        np.testing.assert_allclose(beta, 1.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(gamma), 0.1, atol=1e-12)
        off = gamma - np.diag(np.diag(gamma))
        assert np.all(off <= 2 * ly.GDN_FLOOR)

    def test_prelu_init(self):
        act = ly.PReLU(5)
        np.testing.assert_array_equal(act.slope.data, np.full(5, 0.25))


class TestLayerGradients:
    def test_conv2d_layer(self):
        rng = make_rng(5)
        conv = ly.Conv2d(2, 3, 3, rng, stride=2)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        proj = rng.standard_normal((1, 3, 2, 2))
        err = gradcheck(
            lambda: projection_loss(conv(x), proj), [x] + conv.parameters()
        )
        assert err < GRAD_TOL

    def test_conv_transpose_layer_doubles_size(self):
        rng = make_rng(6)
        up = ly.ConvTranspose2d(3, 2, rng)
        x = Tensor(rng.standard_normal((1, 3, 3, 3)), requires_grad=True)
        out = up(x)
        assert out.data.shape == (1, 2, 6, 6)
        proj = rng.standard_normal((1, 2, 6, 6))
        err = gradcheck(lambda: projection_loss(up(x), proj), [x] + up.parameters())
        assert err < GRAD_TOL

    def test_gdn_layer(self):
        rng = make_rng(7)
        for inverse in (False, True):
            gdn = ly.GDN(3, inverse=inverse)
            x = Tensor(rng.uniform(0.2, 1.0, size=(1, 3, 2, 2)), requires_grad=True)
            proj = rng.standard_normal((1, 3, 2, 2))
            err = gradcheck(
                lambda: projection_loss(gdn(x), proj), [x] + gdn.parameters()
            )
            assert err < GRAD_TOL

    def test_gdn_layer_round_trip(self):
        rng = make_rng(8)
        gdn = ly.GDN(3)
        igdn = ly.GDN(3, inverse=True)
        igdn.load_state_dict(gdn.state_dict())
        x = Tensor(rng.uniform(-1.0, 1.0, size=(1, 3, 4, 4)))
        y = gdn(x)
        # igdn(gdn(x)) is not the exact functional inverse (the norm is
        # recomputed from y), so invert explicitly with the shared params
        beta = gdn.beta_raw.data**2 + ly.GDN_FLOOR
        gamma = gdn.gamma_raw.data**2 + ly.GDN_FLOOR
        norm = np.sqrt(
            beta[None, :, None, None]
            + np.einsum("ij,bjhw->bihw", gamma, x.data**2)
        )
        np.testing.assert_allclose(y.data * norm, x.data, atol=1e-8)

    def test_prelu_layer(self):
        rng = make_rng(9)
        act = ly.PReLU(3)
        vals = rng.uniform(0.2, 1.0, size=(2, 3, 2, 2)) * rng.choice(
            [-1.0, 1.0], size=(2, 3, 2, 2)
        )
        x = Tensor(vals, requires_grad=True)
        proj = rng.standard_normal((2, 3, 2, 2))
        err = gradcheck(lambda: projection_loss(act(x), proj), [x] + act.parameters())
        assert err < GRAD_TOL
        neg = Tensor(-np.ones((1, 3, 1, 1)))
        np.testing.assert_allclose(act(neg).data.reshape(3), -act.slope.data)

    def test_linear_layer(self):
        rng = make_rng(10)
        lin = ly.Linear(4, 3, rng)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        proj = rng.standard_normal((5, 3))
        err = gradcheck(lambda: projection_loss(lin(x), proj), [x] + lin.parameters())
        assert err < GRAD_TOL

    def test_linear_layer_on_float32_input(self):
        # the layer reads its float64 parameters through kept float32
        # casts, so each finite difference must bump the version it writes
        rng = make_rng(10)
        lin = ly.Linear(4, 3, rng)
        x = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        proj = rng.standard_normal((5, 3))
        err = gradcheck(lambda: projection_loss(lin(x), proj), lin.parameters())
        assert err < 1e-2

    def test_embedding_lookup_and_grad(self):
        rng = make_rng(11)
        emb = ly.Embedding(6, 4, rng)
        idx = np.array([1, 3, 1])
        out = emb(idx)
        np.testing.assert_array_equal(out.data, emb.table.data[idx])
        out.sum().backward()
        expected = np.zeros((6, 4))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(emb.table.grad, expected)
