"""IREC core: the paper's primary contribution.

This package contains everything §IV and §V of the paper describe:

* the PCB (path-construction beacon) data model with IREC's extensions
  (:mod:`repro.core.beacon`, :mod:`repro.core.staticinfo`,
  :mod:`repro.core.extensions`),
* the criteria framework: one table of named metrics, criteria sets that
  compose them lexicographically or by Pareto dominance and are the
  algorithm an on-demand payload ships (:mod:`repro.core.criteria`), and
  the dominance arithmetic they rank with (:mod:`repro.core.algebra`),
* the intra-AS architecture — ingress gateway, routing algorithm containers
  (RACs), egress gateway, their databases, and the combined control service
  (:mod:`repro.core.ingress`, :mod:`repro.core.rac`,
  :mod:`repro.core.egress`, :mod:`repro.core.databases`,
  :mod:`repro.core.control_service`),
* the routing mechanisms built on top: pull-based routing
  (:mod:`repro.core.pull`), on-demand routing with sandboxed algorithm
  execution (:mod:`repro.core.ondemand`, :mod:`repro.core.sandbox`), and
  interface groups (:mod:`repro.core.interface_groups`).
"""

from repro.core.beacon import ASEntry, Beacon, BeaconBuilder
from repro.core.criteria import Criterion, CriteriaSet, Objective, StandardMetrics
from repro.core.extensions import (
    AlgorithmExtension,
    InterfaceGroupExtension,
    TargetExtension,
)
from repro.core.messages import (
    ControlMessage,
    PCBMessage,
    PathRegistrationMessage,
    RevocationMessage,
)
from repro.core.query import PathQuery, PathQueryFrontend
from repro.core.revocation import RevocationState
from repro.core.staticinfo import StaticInfo

__all__ = [
    "ASEntry",
    "AlgorithmExtension",
    "Beacon",
    "BeaconBuilder",
    "ControlMessage",
    "CriteriaSet",
    "Criterion",
    "InterfaceGroupExtension",
    "Objective",
    "PCBMessage",
    "PathQuery",
    "PathQueryFrontend",
    "PathRegistrationMessage",
    "RevocationMessage",
    "RevocationState",
    "StandardMetrics",
    "StaticInfo",
    "TargetExtension",
]
