/**
 * @file
 * The three benchmark workloads (README.md says why each exists).
 */

#ifndef IADM_PERFBENCH_WORKLOADS_HPP
#define IADM_PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

/** N=4096 fault-free tsdt-dynamic NetworkSim, stepped serially. */
Result runSimClean(const Options &opt, SpanLog &spans);

/** runSweep over the faulted N=1024 grid, health on, report written. */
Result runSweepFaulted(const Options &opt, SpanLog &spans);

/** In-process RouteServer fed open loop over one Unix socket. */
Result runServeOpenLoop(const Options &opt, SpanLog &spans);

} // namespace perfbench

#endif // IADM_PERFBENCH_WORKLOADS_HPP
