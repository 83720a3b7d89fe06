// The scheme x benchmark matrix on the runner pool: run_experiment
// (declared in sim/experiment.hpp) and its seeding helpers.
//
// The matrix is embarrassingly parallel along both axes: every benchmark's
// trace collection owns its workload, caches and RNG, and every
// (benchmark, scheme) replay cell builds a private NvmDevice +
// MemoryController over a read-only shared trace. run_experiment exploits
// both:
//
//   phase a  collect per-benchmark write-back traces concurrently, each
//            workload seeded with a splitmix64 child of
//            ExperimentConfig::seed so the contents of the matrix depend
//            only on (seed, benchmark index) — never on worker count or
//            scheduling order;
//   phase b  fan all benchmark x scheme replay cells out as one flat job
//            batch (flat, so a fixed pool cannot deadlock on nested
//            waits) and merge the results into the ExperimentMatrix in
//            deterministic (benchmark, scheme) order; the last cell of a
//            benchmark to finish frees its workload and trace.
//
// Both phases are one pool_for + parallel_for loop at every jobs count
// (runner/parallel_for.hpp): on one worker there is no pool and each
// phase runs inline in index order, so the cells, the order of checkpoint
// records and the progress lines are the same at every --jobs
// (tests/test_parallel_runner.cpp).
#pragma once

#include "sim/experiment.hpp"

namespace nvmenc {

/// Resolves a jobs request (0 = auto) to the actual worker count.
[[nodiscard]] usize resolve_jobs(usize jobs) noexcept;

/// Child seed for benchmark `index` of an experiment seeded with `seed`:
/// the (index+1)-th splitmix64 output. Benchmarks get decorrelated,
/// order-independent streams, so two copies of the same profile in one
/// experiment produce independent traces.
[[nodiscard]] u64 benchmark_seed(u64 seed, usize index) noexcept;

}  // namespace nvmenc
