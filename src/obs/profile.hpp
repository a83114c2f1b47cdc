#pragma once

// Profile exporter: turns the analyzer's per-op blame partitions into
// Brendan Gregg collapsed-stack lines (`scenario;rank;op;phase weight`),
// so the simulated critical path can be explored with the same tools used
// on real profiles: pipe into flamegraph.pl, or open the file in
// speedscope (speedscope.app / `npx speedscope`), which imports folded
// stacks natively.  Weights are the blame components of each op
// instance's critical rank, in simulated nanoseconds.
//
// The output is a deterministic function of the analyzer report, so it
// inherits the any-thread-count byte-identity of the analysis itself.

#include <iosfwd>

#include "analyze/analyze.hpp"

namespace nbctune::obs {

/// Collapsed-stack lines: `<label>;rank:<R>;op:<corr>;<phase> <ns>` with
/// spaces in the scenario label folded to '_' (frames must be
/// space-free; the weight is the last space-separated token).  Zero
/// components are skipped.
void write_collapsed(std::ostream& os, const analyze::Report& report);

/// Sum of every weight write_collapsed emits for `report` — by
/// construction the llround'ed blame-partition total.
[[nodiscard]] long long profile_total_weight_ns(const analyze::Report& report);

}  // namespace nbctune::obs
