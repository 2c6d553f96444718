"""repro — reproduction of "Optimizing Issue Queue Reliability to Soft
Errors on Simultaneous Multithreaded Architectures" (Fu, Zhang, Li,
Fortes; ICPP 2008).

The package provides:

* a cycle-level SMT out-of-order processor simulator
  (:mod:`repro.core`) with the paper's Table 2 machine configuration
  (:mod:`repro.config`), caches/TLBs (:mod:`repro.memory`) and SMT
  fetch policies (:mod:`repro.frontend`);
* synthetic SPEC CPU2000 stand-in workloads (:mod:`repro.isa`,
  :mod:`repro.workloads`);
* the paper's reliability framework (:mod:`repro.reliability`):
  post-retirement ACE analysis, bit-level AVF accounting, offline PC
  profiling, VISA issue, dynamic IQ resource allocation and DVM;
* an experiment harness regenerating every table and figure
  (:mod:`repro.harness`).

Quickstart::

    from repro import SMTPipeline, get_mix
    from repro.harness.runner import BenchScale
    programs = get_mix("CPU-A").programs(seed=1)
    result = SMTPipeline(programs, sim=BenchScale().sim_config()).run()
    print(result.ipc, result.iq_avf)
"""

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    MachineConfig,
    ReliabilityConfig,
    SimulationConfig,
    TLBConfig,
)
from repro.core.pipeline import SMTPipeline, SimulationResult
from repro.core.scheduler import OldestFirstScheduler, VISAScheduler, make_scheduler
from repro.frontend.fetch_policy import make_fetch_policy
from repro.isa.generator import ProgramGenerator, generate_program
from repro.isa.personalities import PERSONALITIES, get_personality
from repro.reliability.ace import ACEAnalyzer
from repro.reliability.avf import AVFAccount, AVFBitLayout, Structure
from repro.reliability.dvm import DVMController
from repro.reliability.profiling import apply_profile, profile_and_apply, profile_program
from repro.reliability.resource_alloc import (
    DynamicIQAllocation,
    L2MissSensitiveAllocation,
)
from repro.workloads import MIXES, get_mix, mixes_in_category

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "SimulationConfig",
    "ReliabilityConfig",
    "CacheConfig",
    "TLBConfig",
    "BranchPredictorConfig",
    "SMTPipeline",
    "SimulationResult",
    "VISAScheduler",
    "OldestFirstScheduler",
    "make_scheduler",
    "make_fetch_policy",
    "ProgramGenerator",
    "generate_program",
    "PERSONALITIES",
    "get_personality",
    "ACEAnalyzer",
    "AVFAccount",
    "AVFBitLayout",
    "Structure",
    "DVMController",
    "DynamicIQAllocation",
    "L2MissSensitiveAllocation",
    "profile_program",
    "profile_and_apply",
    "apply_profile",
    "MIXES",
    "get_mix",
    "mixes_in_category",
    "__version__",
]
