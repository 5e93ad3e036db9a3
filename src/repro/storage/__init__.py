"""Storage substrate: per-site file stores and inter-site transfers.

Workflow tasks exchange data through files on shared intermediate
storage co-deployed with the application (the TomusBlobs-style setup the
paper builds on).  Metadata (file -> locations) lives in the metadata
service; this package holds the *data* side: which bytes exist at which
site, and the cost of moving them.

The package re-exports the file stores only.  Inter-site transfers
(:class:`~repro.storage.transfer.TransferService`) belong to the
workflow surfaces: import them from :mod:`repro.storage.transfer`.
"""

from repro.storage.filestore import FileStore, StoredFile

__all__ = ["FileStore", "StoredFile"]
