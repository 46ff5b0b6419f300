"""Durable run store: ledger-backed, checkpointed, resumable experiments.

See :mod:`repro.store.runstore` for the architecture and
``docs/store.md`` for the schema, hashing rules and resume semantics.
Command-line access: ``python -m repro.store {ls,show,diff,gc,export}``.
"""

from ..errors import StoreError, StoreSchemaError
from .artifacts import ArtifactStore
from .keys import STORE_SCHEMA_VERSION, canonical_json, content_digest, unit_key
from .ledger import Ledger
from .locks import FileLock
from .runstore import (
    RunStore,
    active_store,
)

__all__ = [
    "ArtifactStore",
    "FileLock",
    "Ledger",
    "RunStore",
    "STORE_SCHEMA_VERSION",
    "StoreError",
    "StoreSchemaError",
    "active_store",
    "canonical_json",
    "content_digest",
    "unit_key",
]
