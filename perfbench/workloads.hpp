// The four benchmark workloads. Each runs one seeded workload end to end
// (Args::trace == false) or as a traced run that reports per-layer metrics
// (Args::trace == true); see README.md for what each one measures and why.
#pragma once

#include <memory>

#include "bench.hpp"
#include "bench_common.hpp"

namespace perfbench {

// Fills `out` from workload `args.workload`. Gate violations are recorded in
// the result; the caller prints it.
void run_resnet(const Args& args, Result& out);
void run_ptb(const Args& args, Result& out);
void run_mnist_dp(const Args& args, Result& out);
void run_serve(const Args& args, Result& out);

// The ptb-b8-t1 inputs (smoke-sized under --smoke) and LR schedule, shared
// with serve-ptb-open, which serves a model trained by that recipe.
legw::bench::PtbWorkload make_ptb_workload(const Args& args);
std::unique_ptr<legw::sched::LrSchedule> ptb_schedule(
    const legw::bench::PtbWorkload& w);

}  // namespace perfbench
