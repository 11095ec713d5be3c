"""Fixture: a charge run is a charge to RA-STREAM, a priced scan is not."""


def iter_unguarded_runs(ctx, disk, plan, passes):
    """Charges one run per pass outside any guard — flagged."""
    for chunk in passes:
        ctx.checkpoint()
        disk.stats.record_run(plan)
        yield ctx.emit(chunk)


def iter_priced_only(ctx, disk, extent):
    """Prices a scan without charging it: nothing to guard."""
    for _span, _payload, sequential, random in disk.scan_charges(extent):
        ctx.checkpoint()
        yield ctx.emit((sequential, random))


def iter_guarded_runs(ctx, environment, disk, plan, passes):
    """The shape the rule wants: each run charged inside the guard."""
    with environment.execution_scope(ctx):
        for chunk in passes:
            ctx.checkpoint()
            with ctx.phase("good.merge"):
                disk.stats.record_run(plan)
            yield ctx.emit(chunk)
