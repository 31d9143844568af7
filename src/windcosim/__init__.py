"""Co-simulation of converter-based wind power plants in RMS grid models.

The package couples a dynamic phasor grid model, converter current
controllers and fault ride-through supervisors through a fixed-step
co-simulation master, and ships the three canonical study scenarios
(monolithic reference, aggregated co-simulation, 32-turbine plant).
"""

from .bench import BenchRow, bench_scaling, format_bench_table
from .collector import CollectorString, WppLayout, plant_equivalent, string_equivalent
from .compare import (ChannelComparison, ComparisonReport, OscillationMetrics,
                      compare_traces, fault_edge_times, oscillation_metrics)
from .converter import (ConverterComponent, ConverterControl, ConverterParams,
                        Priority, QMode, current_limit)
from .cosim import (Connection, Direction, Master, MasterConfig, RunMetadata,
                    Scheme, SimComponent, VariableRef, VarKind)
from .dynamics import GridMeasurements, PowerBalance, RmsModel
from .errors import *  # noqa: F401,F403 -- the error hierarchy is public API
from .frt import (DEFAULT_ENVELOPE_POINTS, EnvelopeResult, FrtComponent,
                  FrtControl, FrtEnvelope, FrtParams, Mode, envelope_check)
from .gridcomp import GridComponent
from .network import (Branch, Bus, FaultEvent, NetworkData, StaticGenerator,
                      SynchronousMachine, assemble_ybus, branch_stamps,
                      fault_shunts, ybus_with_shunts)
from .powerflow import PowerFlowResult, scheduled_injections, solve_power_flow
from .scenario import (ConnectionSpec, Scenario, WtgSpec, build_large_scale,
                       build_monolithic, build_small_scale, instantiate,
                       run_scenario, standard_wiring)
from .scenario_io import (parse_scenario, parse_scenario_text,
                          serialize_scenario, write_scenario)
from .trace import TraceSet, read_csv, write_csv
from .wscc9 import wscc9_without_g3

__version__ = "0.1.0"
