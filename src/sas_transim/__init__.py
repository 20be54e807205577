"""Fast transient-stability simulation through multistage semi-analytic
series windows, with an RK4 reference integrator, accuracy-window and
minimum-inertia estimation, and small-signal mode analysis."""

from .adm import (MachineState, SasWindow, SwingRhsParams, derive_window,
                  equilibrium_state, eval_window)
from .errors import (CaseParseError, DivergenceError, NumericalError,
                     ValidationError)
from .mmadm import (Trajectory, WindowConfig, handoff_state, i_loa, read_csv,
                    simulate_sas)
from .netmodel import (BranchSpec, BusSpec, EventScript, GeneratorParams,
                       PowerSystemCase, augmented_ybus, build_ybus,
                       builtin_case, builtin_case_names, init_from_powerflow,
                       initialized_case, kron_reduce, load_case, parse_case,
                       resolve_case, set_inertia)
from .ra import (ModeAnalysis, RaInputs, RaResult, estimate_hmin, estimate_ra,
                 mode_periods, ra_inputs_for_machine)
from .rk4 import (CompareReport, IntegratorConfig, compare, fault_on_bootstrap,
                  integrate)

__version__ = "0.1.0"
