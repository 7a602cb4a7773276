"""Import-path shim; the process pool that lived here is deleted.
``benchmarks/e2e/e2e_layers.py`` (frozen by BENCHMARK.json) subclasses this
as a context manager; ROADMAP item 1 ports it to ``Evaluator``, then delete.
"""
from .evaluator import Evaluator


class ParallelEvaluator(Evaluator):
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None
