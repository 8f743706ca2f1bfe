"""EXP-ST — Fig. 2 substrate: embedded-store throughput.

Microbenchmarks of the MySQL-substitute under campaign-shaped
workloads (bulk insert, indexed point queries on the live table and on
snapshot views, cost-based And/top-k queries vs. their
full-scan/full-sort baselines, planned 2- and 3-way joins, warm
plan-cache vs. cold planning, maintained
statistics vs. their O(n) baselines, transactional updates,
group-commit fsync policies, concurrent snapshot readers vs. a
transactional writer, crash recovery, incremental checkpoints).
"""

from repro.experiments import store_ops


def test_exp_st_store_throughput(run_experiment_once):
    result = run_experiment_once(lambda: store_ops.run(rows=5000))
    assert len(result.rows) == 34
