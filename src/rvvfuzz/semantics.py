"""Per-family semantic classes driving dataflow, analysis and argument rules.

The class answers one question for the well-definedness analysis: how do
destination positions of the data stream relate to source positions?

- elementwise: dest[p] depends only on sources at p (arith, logic, shifts,
  compares, conversions, merges, broadcasts, whole-register moves).
- reduction: one scalar folded from the active elements; only the first
  stream position of the result is trackable across machines.
- lane-local: dest lanes are permuted/indexed relative to the iteration
  chunk (slides, gathers, compress, iota, element-index, mask cascades);
  values are machine-width dependent, so results never reach a print.
- regroup: register-group insert/extract between different LMUL shapes.
- tuple-insert / tuple-extract: exact per-field dataflow for segment tuples.
- scalar-out / scalar-insert: lane 0 crossing into or out of scalar land.
- uninitialized: results are (partly) undefined regardless of inputs.
"""

from __future__ import annotations

from .intrinsics import IntrinsicDef, is_always_undefined, is_reduction

ELEMENTWISE = "elementwise"
REDUCTION = "reduction"
LANE_LOCAL = "lane-local"
REGROUP = "regroup"
TUPLE_INSERT = "tuple-insert"
TUPLE_EXTRACT = "tuple-extract"
SCALAR_OUT = "scalar-out"
SCALAR_INSERT = "scalar-insert"
UNINITIALIZED = "uninitialized"

_LANE_LOCAL_STEMS = frozenset(
    {
        "vslideup",
        "vslidedown",
        "vslide1up",
        "vslide1down",
        "vfslide1up",
        "vfslide1down",
        "vcompress",
        "viota",
        "vid",
        "vmsbf",
        "vmsif",
        "vmsof",
    }
)

# mask operand consumed as data (selector/carry), not as an execution mask
SELECTOR_STEMS = frozenset({"vmerge", "vfmerge", "vadc", "vsbc", "vmadc", "vmsbc"})

# ops that read their vd (the multiply-add accumulator, the slide-up
# background); under a tu/mu policy that one vd is also the merge operand
VD_INPUT_STEMS = frozenset(
    {
        "vmacc", "vnmsac", "vmadd", "vnmsub",
        "vwmacc", "vwmaccu", "vwmaccsu", "vwmaccus",
        "vfmacc", "vfnmacc", "vfmsac", "vfnmsac",
        "vfmadd", "vfnmadd", "vfmsub", "vfnmsub",
        "vfwmacc", "vfwnmacc", "vfwmsac", "vfwnmsac",
        "vslideup",
    }
)


def semantic_class(d: IntrinsicDef) -> str:
    """The class of ``d``, worked out on first use and kept on the def."""
    klass = d.sem_class
    if klass is None:
        klass = d.sem_class = _classify(d)
    return klass


def _classify(d: IntrinsicDef) -> str:
    if is_always_undefined(d):
        return UNINITIALIZED
    stem = d.stem
    if is_reduction(d):
        return REDUCTION
    if stem in ("vcpop", "vfirst") or d.mnemonic.startswith(("vmv_x_s", "vfmv_f_s")):
        return SCALAR_OUT
    if d.mnemonic.startswith(("vmv_s_x", "vfmv_s_f")):
        return SCALAR_INSERT
    if stem in _LANE_LOCAL_STEMS:
        return LANE_LOCAL
    if stem in ("vset", "vget"):
        tuple_involved = any(t.is_tuple for t in d.vector_types())
        if not tuple_involved:
            return REGROUP
        return TUPLE_INSERT if stem == "vset" else TUPLE_EXTRACT
    if stem in ("vrgather", "vrgatherei16"):
        # the index operand is synthesized from vid, making the op an
        # identity copy for the vv form; the vx form stays lane-local
        if any(p.name == "vs1" and p.vtype is not None for p in d.params):
            return ELEMENTWISE
        return LANE_LOCAL
    return ELEMENTWISE


def wants_synth_index(d: IntrinsicDef, param_name: str) -> bool:
    """Vector operands that must carry in-bounds indices built from vid."""
    return d.stem in ("vrgather", "vrgatherei16") and param_name == "vs1"


def is_generatable(d: IntrinsicDef) -> bool:
    """Operations the generator can bind: no raw memory operands."""
    if d.category != "Operation":
        return False
    return all(p.role != "memory-address" for p in d.params)
