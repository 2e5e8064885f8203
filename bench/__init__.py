"""The repository benchmark: end-to-end workloads, oracles and a layer ledger.

Run ``python -m bench run`` from the repository root; see README.md.
"""
