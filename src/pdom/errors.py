"""Exception hierarchy shared by all pdom modules."""


class PdomError(Exception):
    """Base class for all package errors."""


class DimensionError(PdomError):
    """Inconsistent matrix or channel dimensions."""


class NumericalError(PdomError):
    """A numerical routine failed to converge or left its valid range."""


class UnsupportedConfigurationError(PdomError):
    """A structurally valid input falls outside the supported configuration."""


class CouplingError(PdomError):
    """A loop fails ``closed_loop_certificate``: its coupling condition, an open-loop certificate or the closed loop."""


class LmiInfeasibleError(PdomError):
    """Feasibility search returned no storage; carries the final report.

    It is a proof of infeasibility only when ``report.proves_infeasible``;
    otherwise it reports a stall, or a search that ended with the wrong inertia.
    """

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report

