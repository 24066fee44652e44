// Rule 2 fixture (violation): the global pool first reached inside a
// ScopedSuspend no-fail region. Its lazy construction spawns threads and
// can fail, so the fan-out must go through a pool the pre-flight built.
namespace strassen {

void add_columns(const parallel::ThreadPool::RawTask* tasks, int n) {
  faultinject::ScopedSuspend suspend;
  parallel::global_pool().run_batch_nofail(tasks, n);
}

}  // namespace strassen
