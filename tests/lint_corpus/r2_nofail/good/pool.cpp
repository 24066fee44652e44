// Rule 2 fixture (clean twin): the pre-flight builds the global pool, and
// the no-fail region fans out through run_batch_nofail, the sanctioned
// allocation-free batch entry point.
namespace strassen {

void add_columns(const parallel::ThreadPool::RawTask* tasks, int n) {
  parallel::ThreadPool& pool = parallel::global_pool();
  faultinject::ScopedSuspend suspend;
  pool.run_batch_nofail(tasks, n);
}

}  // namespace strassen
