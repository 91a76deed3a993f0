from transelect.evidence import evidence_quadrature
from transelect.likelihood import PROPOSAL_SCALE, run_mh

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def grid_seeded_mh(ctx, prior, cfg, seed):
    """run_mh started as analyze_dataset starts it: at the quadrature grid's
    mode, with the proposal sd fixed at PROPOSAL_SCALE grid sds."""
    diag = evidence_quadrature(ctx, prior).diagnostics
    return run_mh(ctx, prior, cfg, diag["x_mode"], PROPOSAL_SCALE * diag["x_sd"], seed)
