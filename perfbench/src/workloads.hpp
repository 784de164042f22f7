// The three workloads. Each builds its inputs from Args::seed, runs whole
// rounds, each on a fresh set-up (setup_s is the median set-up time), until
// Args::seconds of round time have passed, checks every output, and returns
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Table II replay: origin -> DeltaServer::serve -> base fetch through the
/// proxy LruCache -> ClientAgent::reconstruct, one caller, closed loop.
Outcome run_table2(const Args& args);

/// Open-loop independent users into DeltaWorkerPool over a sharded server,
/// at a fixed offered rate, then a saturating burst.
Outcome run_pool(const Args& args);

/// One caller over the HTTP wire path (HttpClientAgent::get ->
/// HttpProxy::handle -> DeltaFrontend::handle_raw) on high-churn sites.
Outcome run_churn(const Args& args);

}  // namespace perfbench
