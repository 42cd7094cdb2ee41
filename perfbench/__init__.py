"""The FeatAug benchmark: workloads, tracing and the compare tool."""
