"""Benchmark of iresearch_ray: ingest, search and curate workloads."""
