"""Tool-augmented hallucination detection runtime.

A four-agent loop (planner, actor, critic, reflector) learns verification
strategies from execution failures, curates the resulting trajectories into
SFT training data, and detects hallucinations with pre-execution strategy
correction. Chat and embedding backends are pluggable; a scripted provider
and a deterministic embedder make every workflow runnable offline.
"""

from .core import (
    Action,
    AdvantageReport,
    Claim,
    Label,
    Step,
    Tool,
    Trajectory,
    Verdict,
    VerificationStrategy,
)

__all__ = [
    "Action",
    "AdvantageReport",
    "Claim",
    "Label",
    "Step",
    "Tool",
    "Trajectory",
    "Verdict",
    "VerificationStrategy",
]

__version__ = "0.1.0"
