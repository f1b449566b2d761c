// Self-test of the benchmark's own checking and reduction code, run before
// every measurement: the oracles must reject a response with one altered
// row and one with a missing row, and the span reducer must compute the
// right self times and residual on a small synthetic span tree.
#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

#include "util/status.h"

namespace perfbench {

cqc::Status RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
