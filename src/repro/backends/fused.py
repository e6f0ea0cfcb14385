"""Fused fleet forward: one stacked numpy call chain for N programmed chips.

The serving hot path used to be O(chips x layers) Python dispatch: every
chip ran its own per-layer forward, so fleet throughput was bounded by
interpreter and autograd overhead rather than by numpy.  But replicas of
one golden model share *all* structure — only the quantized per-layer
state differs per chip (perturbed weights on the fake-quant path, tile
conductances on the circuit path).  :class:`FusedFleetForward` exploits
that: it stacks each layer's per-chip state into one ``(chips, ...)``
tensor at build time and then executes a whole group of micro-batches —
one per chip — through a single merged elementwise chain per layer, with
one GEMM per (chip, layer) slice.

Bit-exactness is a hard requirement, not an aspiration: the fused path
must produce *the same bits* as dispatching each batch through its chip's
:meth:`~repro.backends.base.ProgrammedChip.forward`.  Two rules make
that hold:

* every elementwise op (activation fake-quant, pooling, bias add) is
  applied in exactly the same order and association as the unfused code,
  on merged arrays — elementwise math is batching-invariant (the circuit
  MVM chain additionally runs per chip slice, where merged temporaries
  measure slower on cache-bound hosts);
* every GEMM runs with exactly the operand shapes, orientation, and
  dtypes the unfused path would use, in a plain 2-D ``np.matmul`` — the
  *same* BLAS call the unfused layer makes, so no assumption about
  reduction-order invariance across GEMM geometries is ever needed.  A
  linear layer slices the merged activations back per chip as row
  ranges (``x_c @ W_c.T``); a conv layer slices the merged channel-major
  im2col matrix ``(C*kh*kw, sum(B_c)*H_out*W_out)`` as column ranges
  (``W_c @ cols_c``), because :func:`~repro.nn.conv.im2col` lays every
  sample's output positions out along the columns.

Because the GEMMs are per-slice, groups do **not** require equal batch
sizes — the merge only amortizes interpreter, im2col, quantization, and
activation traffic across the fleet.

Effective per-chip state is snapshotted at build time, so a stack is a
*derived view* that goes stale whenever a member chip mutates.  Each
:class:`~repro.backends.base.ProgrammedChip` carries a ``version``
counter bumped on ``refresh``/``apply_faults``; :meth:`FusedFleetForward.covers`
compares ``(identity, version)`` pairs, and the serving engine rebuilds
lazily when a group is no longer covered (reprogramming and chip
replacement create new chip objects, which fail the identity check).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.backends.base import ProgrammedChip
from repro.backends.circuit import CircuitChip
from repro.backends.fakequant import FakeQuantChip, replicate_for_programming
from repro.nn.conv import im2col
from repro.nn.module import Module
from repro.pim.chip import MappedConv2d, MappedLinear, _ChipLayerModule
from repro.quant.ptq import quantized_layers
from repro.quant.qlayers import QuantConv2d, QuantLinear


class UnstackableError(RuntimeError):
    """A fleet cannot be fused into one stacked forward.

    Raised by :meth:`FusedFleetForward.build` with a human-readable
    reason (mixed backends, self-tuning attached, noisy ADCs, mismatched
    tile plans, ...).  Callers fall back to per-chip dispatch — fusion is
    an optimization, never a capability.
    """


def _all_equal(values) -> bool:
    values = list(values)
    return all(v == values[0] for v in values[1:])


class _FusedLayerBase(Module):
    """Shared plumbing for the template's stacked leaf layers.

    A fused adapter is parameter-free (stacked state is derived, not
    trainable); it reads the active group context — ``(idx, bounds)``,
    the member-stack positions and merged-row boundaries of the group's
    per-chip batches — from its owning :class:`FusedFleetForward` on
    every call.
    """

    def __init__(self, owner: "FusedFleetForward") -> None:
        super().__init__()
        object.__setattr__(self, "owner", owner)


def _sliced_matmul(flat: np.ndarray, idx, bounds, stacks) -> np.ndarray:
    """Per-chip-slice GEMMs over a merged linear-layer activation matrix.

    ``flat`` is ``(sum(B_c), k)`` with chip ``c``'s rows at
    ``[bounds[c], bounds[c + 1])``; ``stacks[pos]`` is that chip's
    ``(k, n)`` weight operand *in the unfused layout*, the F-contiguous
    ``.T`` view of its ``(n, k)`` weight.  Each slice runs the identical
    2-D ``np.matmul`` the unfused layer would — contiguous A slice,
    same-layout B — which is what makes the fused output bit-identical
    to per-chip dispatch on any BLAS (the transpose flag reaches the
    BLAS kernel, and output bits are *not* invariant to it at small M).
    """
    out = np.empty((flat.shape[0], stacks[idx[0]].shape[1]))
    for pos, start, stop in zip(idx, bounds[:-1], bounds[1:]):
        np.matmul(flat[start:stop], stacks[pos], out=out[start:stop])
    return out


def _sliced_conv_matmul(cols: np.ndarray, idx, bounds, scale: int, stacks) -> np.ndarray:
    """Per-chip-slice conv GEMMs over a merged channel-major im2col matrix.

    ``cols`` is ``(k, sum(B_c) * scale)`` with chip ``c``'s output
    positions in columns ``[bounds[c] * scale, bounds[c + 1] * scale)``;
    ``stacks[pos]`` is that chip's C-contiguous ``(n, k)`` flattened
    weight.  Each slice runs the unfused conv's ``w_mat @ cols`` — same
    operand order and orientation, a unit-stride column block of ``cols``
    — so the output bits match per-chip dispatch (see
    :func:`_sliced_matmul` for why orientation matters).
    """
    out = np.empty((stacks[idx[0]].shape[0], cols.shape[1]))
    for pos, start, stop in zip(idx, bounds[:-1], bounds[1:]):
        span = slice(start * scale, stop * scale)
        block = cols[:, span]
        if len(stacks[pos]) == 1:
            # A one-row weight makes numpy call GEMV, whose bits (unlike
            # GEMM's) depend on the block's row stride: hand it the
            # contiguous block the unfused conv multiplies.
            block = np.ascontiguousarray(block)
        np.matmul(stacks[pos], block, out=out[:, span])
    return out


# ----------------------------------------------------------------------
# Fake-quant backend: stacked effective weights
# ----------------------------------------------------------------------
class _FusedQuantLinear(_FusedLayerBase):
    """Stacked :class:`~repro.quant.qlayers.QuantLinear` across the fleet."""

    def __init__(self, owner, qlayer: QuantLinear, stacks: list[np.ndarray]) -> None:
        super().__init__(owner)
        object.__setattr__(self, "qlayer", qlayer)
        # Per chip, (in_features, out_features): the transpose of the chip
        # layer's _quantize_weight() output, bit-identical per element.
        object.__setattr__(self, "stacks", stacks)

    def forward(self, x):
        idx, bounds = self.owner._group
        qlayer = self.qlayer
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if qlayer.qconfig.quantize_activations:
            spec = qlayer.act_spec
            codes = np.clip(np.rint(data / float(qlayer.act_scale)), spec.qmin, spec.qmax)
            data = codes * float(qlayer.act_scale)
        out = _sliced_matmul(data, idx, bounds, self.stacks)
        if qlayer.bias is not None:
            out = out + qlayer.bias.data
        return Tensor(out)


class _FusedQuantConv2d(_FusedLayerBase):
    """Stacked :class:`~repro.quant.qlayers.QuantConv2d` across the fleet.

    im2col runs once over the merged batch (patch extraction is
    per-sample, so merged columns are bit-identical to per-chip columns),
    then each chip's column range — ``B_c * H_out * W_out`` output
    positions — is multiplied by that chip's flattened weight matrix in
    the same 2-D GEMM the unfused :func:`~repro.nn.conv.conv2d` runs.
    """

    def __init__(self, owner, qlayer: QuantConv2d, stacks: list[np.ndarray]) -> None:
        super().__init__(owner)
        object.__setattr__(self, "qlayer", qlayer)
        # Per chip, (out_channels, C*kh*kw) C-contiguous flattened weights.
        object.__setattr__(self, "stacks", stacks)

    def forward(self, x):
        idx, bounds = self.owner._group
        qlayer = self.qlayer
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if qlayer.qconfig.quantize_activations:
            spec = qlayer.act_spec
            codes = np.clip(np.rint(data / float(qlayer.act_scale)), spec.qmin, spec.qmax)
            data = codes * float(qlayer.act_scale)
        kernel = (qlayer.kernel_size, qlayer.kernel_size)
        cols = im2col(data, kernel, qlayer.stride, qlayer.padding)
        patch, total, h_out, w_out = cols.shape
        out = _sliced_conv_matmul(
            cols.reshape(patch, -1), idx, bounds, h_out * w_out, self.stacks
        )
        out = out.reshape(-1, total, h_out, w_out).transpose(1, 0, 2, 3)
        if qlayer.bias is not None:
            out = out + qlayer.bias.data.reshape((1, -1, 1, 1))
        return Tensor(out)


# ----------------------------------------------------------------------
# Circuit backend: stacked tile conductances
# ----------------------------------------------------------------------
class _FusedMappedBase(_FusedLayerBase):
    """Shared per-slice MVM machinery for circuit-deployed layers.

    The circuit path quantizes *after* patch extraction, so its
    elementwise DAC/clip chain runs over the full im2col drive matrix.
    Running that chain merged is a measured pessimization on cache-bound
    hosts (the working set of the op-by-op temporaries triples), so the
    fused circuit layer shares only the merged glue (im2col, pooling,
    activations, reshapes) and runs each chip's *own*
    :meth:`~repro.pim.chip._MappedLayer._mvm` on its contiguous row
    slice — bit-exactness by construction, since it is literally the
    unfused code on the same rows.
    """

    def __init__(self, owner, mapped_layers: list) -> None:
        super().__init__(owner)
        # Per stack position, that chip's own mapped layer object.
        object.__setattr__(self, "mapped_layers", mapped_layers)

    def _per_chip_mvm(self, flat: np.ndarray, idx, bounds, scale: int) -> np.ndarray:
        first = self.mapped_layers[idx[0]]
        out = np.empty((flat.shape[0], first.d_out))
        for pos, start, stop in zip(idx, bounds[:-1], bounds[1:]):
            rows = slice(start * scale, stop * scale)
            out[rows] = self.mapped_layers[pos]._mvm(flat[rows])
        return out


class _FusedMappedLinear(_FusedMappedBase):
    """Fleet-shared :class:`~repro.pim.chip.MappedLinear` dispatch."""

    def forward(self, x):
        idx, bounds = self.owner._group
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        flat = np.atleast_2d(np.asarray(data, dtype=np.float64))
        out = self._per_chip_mvm(flat, idx, bounds, 1)
        qlayer = self.mapped_layers[idx[0]].qlayer
        if qlayer.bias is not None:
            out = out + qlayer.bias.data
        return Tensor(out)


class _FusedMappedConv2d(_FusedMappedBase):
    """Fleet-shared :class:`~repro.pim.chip.MappedConv2d` dispatch.

    The unfused circuit conv drives its arrays with the
    ``(B*H_out*W_out, d_in)`` view ``cols.reshape(d_in, -1).T`` of the
    channel-major im2col matrix; the fused version extracts patches from
    the merged batch once, takes the same view, and scales each chip's
    row range by ``H_out * W_out``, so every per-chip MVM sees exactly
    the drive rows (values and layout) the unfused layer would.
    """

    def forward(self, x):
        idx, bounds = self.owner._group
        first = self.mapped_layers[idx[0]]
        qlayer = first.qlayer
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        data = np.asarray(data, dtype=np.float64)
        kernel = (qlayer.kernel_size, qlayer.kernel_size)
        cols = im2col(data, kernel, qlayer.stride, qlayer.padding)
        patch, total, h_out, w_out = cols.shape
        out = self._per_chip_mvm(cols.reshape(patch, -1).T, idx, bounds, h_out * w_out)
        out = out.reshape(total, h_out, w_out, first.d_out).transpose(0, 3, 1, 2)
        if qlayer.bias is not None:
            out = out + qlayer.bias.data.reshape((1, -1, 1, 1))
        return Tensor(out)


# ----------------------------------------------------------------------
# The fused forward itself
# ----------------------------------------------------------------------
class FusedFleetForward:
    """One batched forward for a whole fleet of programmed chips.

    Build one with :meth:`build` from the fleet's
    :class:`~repro.backends.base.ProgrammedChip` list (raises
    :class:`UnstackableError` when the fleet cannot be stacked), check
    freshness with :meth:`covers`, and execute a group of per-chip
    batches with :meth:`forward`.  Instances hold strong references to
    their member chips, so an ``(identity, version)`` pair can never be
    recycled by the allocator while the stack is alive.
    """

    def __init__(self, members, template, backend: str) -> None:
        self._members = list(members)
        self._template = template
        self._index = {id(chip): pos for pos, chip in enumerate(self._members)}
        self._versions = [chip.version for chip in self._members]
        self._group = None
        self.backend = backend

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, chips: list[ProgrammedChip]) -> "FusedFleetForward":
        """Stack ``chips`` into one fused forward.

        Raises :class:`UnstackableError` when the fleet is heterogeneous
        or carries per-chip state the stacked kernels cannot represent
        (self-tuning corrections, noisy ADCs, device/IR-drop models,
        mismatched tile plans or layer sets).
        """
        chips = list(chips)
        if not chips:
            raise UnstackableError("cannot fuse an empty fleet")
        if all(isinstance(chip, FakeQuantChip) for chip in chips):
            template = cls._fakequant_template(chips, owner_slot := _OwnerSlot())
            fused = cls(chips, template, backend="fake-quant")
        elif all(isinstance(chip, CircuitChip) for chip in chips):
            template = cls._circuit_template(chips, owner_slot := _OwnerSlot())
            fused = cls(chips, template, backend="circuit")
        else:
            raise UnstackableError(
                "mixed or unknown chip backends: "
                + ", ".join(sorted({type(chip).__name__ for chip in chips}))
            )
        owner_slot.resolve(fused)
        return fused

    @classmethod
    def _fakequant_template(cls, chips, owner) -> Module:
        base = chips[0]
        if base._source_model is None or any(
            chip._source_model is not base._source_model for chip in chips
        ):
            raise UnstackableError("chips were not programmed from one golden model")
        if any(chip.tuner is not None for chip in chips):
            raise UnstackableError("self-tuning corrections are per-chip state")
        layer_maps = [dict(quantized_layers(chip.mapping)) for chip in chips]
        names = list(layer_maps[0])
        if any(list(layers) != names for layers in layer_maps[1:]):
            raise UnstackableError("chips disagree on their quantized layer sets")
        stacks = {}
        for name in names:
            layers = [layers[name] for layers in layer_maps]
            first = layers[0]
            if any(type(layer) is not type(first) for layer in layers):
                raise UnstackableError(f"layer {name!r} has mixed types across chips")
            for layer in layers:
                if layer._calibrating:
                    raise UnstackableError(f"layer {name!r} is mid-calibration")
                if layer._input_observer is not None:
                    raise UnstackableError(f"layer {name!r} has an input observer attached")
                if layer.self_tuner is not None:
                    raise UnstackableError(f"layer {name!r} carries a self-tuner")
            if not _all_equal(float(layer.act_scale) for layer in layers):
                raise UnstackableError(f"layer {name!r} has per-chip activation scales")
            if first.qconfig.quantize_activations and float(first.act_scale) == 0.0:
                raise UnstackableError(f"layer {name!r} is uncalibrated")
            effective = []
            for layer in layers:
                with no_grad():
                    weight = layer._quantize_weight().data
                weight = np.ascontiguousarray(np.asarray(weight, dtype=np.float64))
                # Keep the unfused operand layout exactly; BLAS output bits
                # depend on the transpose flag at small M.  The unfused conv
                # multiplies w_mat @ cols with w_mat the C-contiguous
                # (n, k) flattened weight; the unfused linear multiplies by
                # w_tilde.T, an F-contiguous view of the (n, k) weight.
                if isinstance(first, QuantConv2d):
                    effective.append(weight.reshape(layer.out_channels, -1))
                else:
                    effective.append(weight.T)
            stacks[name] = effective

        def make_adapter(path, layer):
            if isinstance(layer, QuantConv2d):
                return _FusedQuantConv2d(owner, layer, stacks[path])
            return _FusedQuantLinear(owner, layer, stacks[path])

        return cls._swap_template(
            base.mapping, (QuantLinear, QuantConv2d), make_adapter
        )

    @classmethod
    def _circuit_template(cls, chips, owner) -> Module:
        base = chips[0]
        names = base.deployed
        if any(chip.deployed != names for chip in chips):
            raise UnstackableError("chips disagree on their deployed layer sets")
        if any(chip.chip.adc != base.chip.adc or chip.chip.dac != base.chip.dac for chip in chips):
            raise UnstackableError("chips disagree on converter models")
        if base.chip.adc.noise_rms:
            raise UnstackableError("ADC read noise is order-dependent (stateful RNG)")
        adapters = {}
        for name in names:
            mapped_layers = [chip.chip.layers[name] for chip in chips]
            first = mapped_layers[0]
            if any(type(mapped) is not type(first) for mapped in mapped_layers):
                raise UnstackableError(f"layer {name!r} has mixed types across chips")
            if not _all_equal(
                [spec for spec, _ in mapped.tiles] for mapped in mapped_layers
            ):
                raise UnstackableError(f"layer {name!r} has per-chip tile plans")
            if not _all_equal(
                (mapped.act_scale, mapped.weight_scale, mapped.d_in, mapped.d_out)
                for mapped in mapped_layers
            ):
                raise UnstackableError(f"layer {name!r} has per-chip scales or shapes")
            for mapped in mapped_layers:
                for _, array in mapped.tiles:
                    if (
                        array.device is not None
                        or array.ir_drop is not None
                        or array.fault_model is not None
                    ):
                        raise UnstackableError(
                            f"layer {name!r} has device-level array models attached"
                        )
            if isinstance(first, MappedConv2d):
                adapters[name] = _FusedMappedConv2d(owner, mapped_layers)
            elif isinstance(first, MappedLinear):
                adapters[name] = _FusedMappedLinear(owner, mapped_layers)
            else:
                raise UnstackableError(f"layer {name!r} has an unknown mapped type")

        def make_adapter(path, layer):
            return adapters[path]

        return cls._swap_template(base.mapping, (_ChipLayerModule,), make_adapter)

    @staticmethod
    def _swap_template(mapping: Module, leaf_types, make_adapter) -> Module:
        """Structural clone of ``mapping`` with leaf layers swapped for adapters.

        Same recursive walk as :func:`~repro.pim.chip.deploy_model`, so a
        path here names the same layer the backends name — non-leaf
        modules come from :func:`replicate_for_programming` (their state
        aliases the golden model and is identical across chips).
        """
        clone = replicate_for_programming(mapping)

        def convert(module, prefix):
            for name, child in list(module._modules.items()):
                path = prefix + name
                if isinstance(child, leaf_types):
                    setattr(module, name, make_adapter(path, child))
                else:
                    convert(child, path + ".")

        convert(clone, "")
        return clone

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    @property
    def members(self) -> list[ProgrammedChip]:
        """The stacked chips, in stack order."""
        return list(self._members)

    def covers(self, chips) -> bool:
        """Whether every chip in ``chips`` is stacked here, unmutated.

        Compares ``(identity, version)``: reprogramming or replacement
        creates a new chip object (identity miss), while ``refresh`` and
        ``apply_faults`` bump the version in place (version miss).
        """
        for chip in chips:
            pos = self._index.get(id(chip))
            if pos is None or chip is not self._members[pos]:
                return False
            if chip.version != self._versions[pos]:
                return False
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, assignments) -> list[np.ndarray]:
        """Run one fused group: ``[(chip, inputs), ...]`` -> output list.

        Batch sizes may differ per chip (the merge amortizes elementwise
        and interpreter work; the per-slice GEMMs keep each chip's exact
        unfused geometry).  Outputs come back in assignment order,
        bit-identical to ``chip.forward(inputs)``.
        """
        assignments = list(assignments)
        if not assignments:
            return []
        batches = [np.asarray(inputs) for _, inputs in assignments]
        try:
            idx = tuple(self._index[id(chip)] for chip, _ in assignments)
        except KeyError:
            raise ValueError("assignment names a chip outside this fused stack") from None
        bounds = [0]
        for batch in batches:
            bounds.append(bounds[-1] + int(batch.shape[0]))
        merged = np.concatenate(batches, axis=0) if len(batches) > 1 else batches[0]
        self._group = (idx, tuple(bounds))
        try:
            with no_grad():
                outputs = self._template(Tensor(merged)).data
        finally:
            self._group = None
        return [outputs[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]

    def describe(self) -> dict:
        """Stack provenance (JSON-friendly)."""
        return {
            "backend": self.backend,
            "chips": [chip.chip_id for chip in self._members],
        }

    def __repr__(self) -> str:
        ids = ", ".join(chip.chip_id for chip in self._members)
        return f"FusedFleetForward([{ids}], backend={self.backend!r})"


class _OwnerSlot:
    """Late-bound owner reference for adapters built before their stack.

    The template's adapters need the :class:`FusedFleetForward` for group
    context, but the stack object is constructed *after* its template.
    This proxy forwards ``_group`` lookups once :meth:`resolve` is called.
    """

    def __init__(self) -> None:
        self._owner = None

    def resolve(self, owner: FusedFleetForward) -> None:
        self._owner = owner

    @property
    def _group(self):
        return self._owner._group
