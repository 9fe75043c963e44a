// Table 2: LEGW scales GNMT training from the base batch by 16x without
// losing BLEU. Paper: batch 256..4K, LR 2^-0.5/1e3..2^1.5/1e3, warmup
// 0.0145..0.232 epochs, BLEU flat at ~22. Here: batch 16..256 (same k
// range), synthetic translation task, Adam as the underlying solver.
#include <cstdio>

#include "bench_common.hpp"
#include "dist/cluster_model.hpp"

using namespace legw;

int main(int argc, char** argv) {
  bench::ScopedTrace scoped_trace(argc, argv);
  bench::print_header("Table 2: GNMT batch scaling with LEGW",
                      "paper Table 2");
  bench::GnmtWorkload w;

  std::printf("%10s %12s %14s %10s %10s\n", "batch", "init LR",
              "warmup epochs", "BLEU", "secs");
  bench::print_row_divider(62);

  double base_bleu = 0.0;
  for (i64 batch : {16, 32, 64, 128, 256}) {
    const auto recipe = sched::legw_scale(w.legw_base, batch);
    auto schedule = sched::legw_constant(w.legw_base, batch);
    train::RunConfig run;
    run.batch_size = batch;
    run.epochs = w.epochs;
    run.optimizer = "adam";
    run.schedule = schedule.get();
    run.final_eval_only = true;
    auto result = train::train_gnmt(w.dataset, w.model, run);

    char buf[32];
    std::printf("%10lld %12.6f %14.4f %10s %10.1f\n",
                static_cast<long long>(batch), recipe.peak_lr,
                recipe.warmup_epochs,
                bench::fmt_metric(result.final_metric, result.diverged, buf,
                                  sizeof buf),
                result.wall_seconds);
    if (batch == 16) base_bleu = result.final_metric;
  }
  std::printf(
      "\nShape check (paper): BLEU stays near the baseline (%.2f here)\n"
      "while batch scales 16x; LR follows the sqrt rule, warmup epochs the\n"
      "linear-epoch rule (so warmup *iterations* stay constant, cf. the\n"
      "paper's fixed 200 warmup iterations).\n",
      base_bleu);

  // Large-batch GNMT is where the paper runs on pods; show what the
  // overlap-aware cluster model predicts for the sweep's largest batch.
  dist::ClusterConfig cluster;
  cluster.device = {1000.0, 64.0};
  cluster.max_batch_per_worker = 64;
  const auto seq = dist::cluster_epoch_time(cluster, 100000, 256,
                                            dist::CommMode::kSequential);
  const auto ovl = dist::cluster_epoch_time(cluster, 100000, 256,
                                            dist::CommMode::kOverlapped);
  std::printf(
      "\ncluster model at batch 256 (%lld workers):\n"
      "  epoch %.2fs with sequential allreduce, %.2fs with comm/compute\n"
      "  overlap (%.2fx) — bench/dist_scaling's barrier_est_ms against\n"
      "  step_ms is the measured engine-level counterpart.\n",
      static_cast<long long>(seq.workers), seq.epoch_seconds,
      ovl.epoch_seconds, seq.epoch_seconds / ovl.epoch_seconds);
  return 0;
}
