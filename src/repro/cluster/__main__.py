"""``python -m repro.cluster`` — the cluster-scenario CLI
(:class:`~repro.cluster.scenario.ClusterScenario`)."""

from repro.cluster.scenario import main

if __name__ == "__main__":
    raise SystemExit(main())
