"""Fixture: RA-CORE-IO counts ``record_run`` as a charge, ``scan_charges`` not."""


def priced_only(disk, extent):
    """Prices the scan but never charges it — flagged."""
    charges = [(extent.name, s, r) for _, _, s, r in disk.scan_charges(extent)]
    return [extent.payload(i) for i in range(len(charges))]


def charged_as_one_run(disk, extent):
    """Charges the priced scan as one run before reading — must pass."""
    charges = [(extent.name, s, r) for _, _, s, r in disk.scan_charges(extent)]
    disk.stats.record_run(charges)
    return [extent.payload(i) for i in range(len(charges))]
