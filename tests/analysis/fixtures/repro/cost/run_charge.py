"""Fixture: a cost formula reaching a charge run is impure, a priced scan is not."""


def _charge(stats, plan):
    """Charges a run: any cost function reaching it is impure."""
    stats.record_run(plan)


def _price(disk, extent):
    """Prices a scan without charging it."""
    return sum(s + r for _, _, s, r in disk.scan_charges(extent))


def charging_cost(stats, plan):
    """Reaches a charge run — flagged."""
    _charge(stats, plan)
    return float(len(plan))


def pricing_cost(disk, extent):
    """Reaches only the priced scan — must produce no findings."""
    return float(_price(disk, extent))
