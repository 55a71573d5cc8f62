"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed S``."""
