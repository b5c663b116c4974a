"""Block-structured BPEL-like process models (Sect. 2 of the paper).

Private processes are denoted in (a subset of) BPEL: basic activities for
message exchange (``receive``, ``invoke``, ``reply``) and internal work
(``assign``, ``empty``, ``opaque``, ``terminate``), plus structured
activities for sequential (``sequence``), conditional (``switch``),
event-driven (``pick``), iterative (``while``), and parallel (``flow``)
composition.

The package provides the model (:mod:`.model`), structural validation
(:mod:`.validate`), two hand-rolled concrete syntaxes (XML dialect in
:mod:`.xml_io`, indented DSL in :mod:`.dsl`), the public-process compiler
BPEL → aFSA with the state↔block mapping table of Sect. 3.3
(:mod:`.compile`, :mod:`.mapping`), and first-message analysis used for
choice annotations (:mod:`.firsts`).
"""

from repro.bpel.model import (
    Activity,
    Assign,
    Case,
    Empty,
    Flow,
    Invoke,
    OnMessage,
    Opaque,
    PartnerLink,
    Pick,
    ProcessModel,
    Receive,
    Reply,
    Scope,
    Sequence,
    Switch,
    Terminate,
    While,
)
from repro.bpel.validate import validate_process
from repro.bpel.firsts import first_messages
from repro.bpel.mapping import MappingTable
from repro.bpel.compile import (
    ANNOTATE_ALL_CHOICES,
    ANNOTATE_NONE,
    ANNOTATE_SWITCH_ONLY,
    CompiledProcess,
    compile_process,
)
from repro.bpel.diff import ProcessEdit, diff_processes, render_diff
from repro.bpel.xml_io import process_from_xml, process_to_xml
from repro.bpel.dsl import process_from_dsl, process_to_dsl

__all__ = [
    "ANNOTATE_ALL_CHOICES",
    "ANNOTATE_NONE",
    "ANNOTATE_SWITCH_ONLY",
    "Activity",
    "Assign",
    "Case",
    "CompiledProcess",
    "Empty",
    "Flow",
    "Invoke",
    "MappingTable",
    "OnMessage",
    "Opaque",
    "PartnerLink",
    "Pick",
    "ProcessEdit",
    "ProcessModel",
    "Receive",
    "Reply",
    "Scope",
    "Sequence",
    "Switch",
    "Terminate",
    "While",
    "compile_process",
    "diff_processes",
    "first_messages",
    "process_from_dsl",
    "process_from_xml",
    "process_to_dsl",
    "process_to_xml",
    "render_diff",
    "validate_process",
]
