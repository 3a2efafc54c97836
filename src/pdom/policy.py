"""Every tolerance and size limit used by the toolkit, as fixed module constants.

A pass is a proof up to these tolerances; they are not settable at run time.
"""

SYM_TOL = 1e-9        # relative asymmetry allowed at construction
ZTOL_REL = 1e-8       # zero-eigenvalue band, relative to max(1, ||S||_2)
SPLIT_TOL = 1e-7      # hyperbolicity margin around the shifted axis
RECON_TOL = 1e-9      # rounding allowance in the split masks' delta, relative to ||R||
LMI_TOL = 1e-6        # definiteness slack for LMI residuals
PROBE_MARGIN = 1e-8   # quantified "interior" margin for cone probes
EQ_TOL = 1e-10        # linear equality residual allowed in solutions
FP_TOL_SCALE = 1e-6   # fixed-point tail displacement, times (1+|x|)
CYCLE_TOL = 1e-2      # relative period jitter allowed for cycles
STEP_TOL = 1e-9       # relative distance of t_end / dt from a whole step count
SLOPE_SLACK = 1e-9    # how far a nonlinearity's slope range may pass its declared bounds
RATE_MATCH_TOL = 1e-12  # largest difference of the two open-loop rates a loop certificate takes as one
SEARCH_MARGIN = 1e-6  # margin the storage search asks for, times max(1, ||A||_2)
PTP_DRIFT_TOL = 5 * CYCLE_TOL  # relative change of a cycle's peak-to-peak pattern over two periods
PTP_FLOOR = 1e-12     # least peak-to-peak span a cycle's drift is taken relative to
DIVERGENCE_NORM = 1e9  # state norm at which a trajectory is cut as divergent
MAX_VERTICES = 2**16  # largest vertex family built (k = 16, n = 6: 0.10 s and 85 MB per dominance check, 0.15 s and 136 MB per dissipativity check)
