// Exception-free C entry points for the async serving front-end
// (serve/serve.hpp). Like core/cabi.hpp, no exception ever crosses these
// boundaries; every outcome is an info code from the table documented
// there (extended with the serving codes STRASSEN_INFO_REJECTED /
// _EXPIRED / _CANCELED / _BAD_HANDLE).
//
// Lifecycle: submit hands the request to a process-wide serving queue and
// returns a handle; wait blocks for the terminal outcome, returns its info
// code, and frees the handle; cancel requests cooperative cancellation
// (honored only while C is untouched). The double and float families use
// separate queues with separately typed workspace budgets, mirroring the
// element-typed arenas of the synchronous bindings.
//
// The process-wide queues are configured once, lazily, from environment
// knobs (read at first submit of each element type):
//
//   STRASSEN_SERVE_QUEUE_CAP  bounded queue capacity      (default 256)
//   STRASSEN_SERVE_POLICY     block | reject | shed       (default block)
//   STRASSEN_SERVE_BUDGET     workspace budget, elements  (default 0 =
//                             unlimited; admission never fails on memory)
//   STRASSEN_SERVE_WORKERS    serving worker threads      (default 2)
//
// C is written if and only if wait returns 0 for that handle: rejected,
// expired, and canceled requests leave beta*C semantics untouched, and a
// request degraded by load-shedding still produces the correct product
// (wait returns 0; the degradation is visible in the queue statistics).
#pragma once

#include <cstdint>

extern "C" {

/// Submits C <- alpha*op(A)*op(B) + beta*C to the process-wide double
/// serving queue. `deadline_ms` <= 0 means no deadline, otherwise the
/// request expires if still queued `deadline_ms` milliseconds from now.
/// On success returns 0 and stores the request handle in *handle; returns
/// 1/2 for an invalid trans argument, 15 when `handle` is null, or a
/// negative STRASSEN_INFO_* code when the submission itself failed. All
/// other outcomes -- including rejection and bad BLAS dimensions -- are
/// reported by strassen_dgefmm_wait. A/B/C must stay valid until then.
/// Under the `block` policy this call may wait for a queue slot; under
/// `shed` it may run the degraded GEMM on the calling thread.
[[nodiscard]] int strassen_dgefmm_submit(char transa, char transb,
                                         std::int64_t m, std::int64_t n,
                                         std::int64_t k, double alpha,
                                         const double* a, std::int64_t lda,
                                         const double* b, std::int64_t ldb,
                                         double beta, double* c,
                                         std::int64_t ldc,
                                         std::int64_t deadline_ms,
                                         std::int64_t* handle);

/// Blocks until the request reaches its terminal state, frees the handle,
/// and returns the final info code: 0 success (C written), a positive
/// bad-argument index, or a negative STRASSEN_INFO_* code (including the
/// serving codes). Returns STRASSEN_INFO_BAD_HANDLE for an unknown or
/// already-waited handle. Each handle can be waited exactly once.
[[nodiscard]] int strassen_dgefmm_wait(std::int64_t handle);

/// Requests cooperative cancellation: a request that has not started
/// running completes as canceled; a running one completes normally.
/// Returns 0 (the
/// request to cancel was registered) or STRASSEN_INFO_BAD_HANDLE. The
/// handle stays valid -- the outcome is observed via strassen_dgefmm_wait.
int strassen_dgefmm_cancel(std::int64_t handle);

/// ---- Prepacked operands (mkldnn gemm_pack style) -------------------------
///
/// Pack op(B) once, submit many requests against the image. The pack
/// handle is stamped with the active micro-kernel and the identity of the
/// source matrix; a submit that consults it under a different kernel, or
/// after B moved, is a hard miss that silently re-packs fresh (the product
/// stays correct either way). Pack handles and request handles live in
/// disjoint registries: a pack handle stays valid until freed and may back
/// any number of concurrent submissions.

/// Stores the element count of the packed image of op(B) (k x n after the
/// transpose) under the currently active kernel in *elems. Returns 0, or 1
/// for an invalid `transb`, 2/3 for a negative dimension, 15 when `elems`
/// is null. The count changes when the kernel changes (STRASSEN_KERNEL),
/// exactly as the handle stamp demands.
[[nodiscard]] int strassen_dgefmm_pack_b_size(char transb, std::int64_t k,
                                              std::int64_t n,
                                              std::int64_t* elems);

/// Packs op(B) into a fresh process-registry handle stored in
/// *pack_handle. Returns 0, the positive bad-argument codes of
/// strassen_dgefmm_pack_b_size, or STRASSEN_INFO_ALLOC when the image
/// buffer cannot be allocated. B is read once here and never retained;
/// only its address is stamped for the consult identity check, so B must
/// stay valid (and unmodified) while submissions consult the handle.
[[nodiscard]] int strassen_dgefmm_pack_b(char transb, std::int64_t k,
                                         std::int64_t n, const double* b,
                                         std::int64_t ldb,
                                         std::int64_t* pack_handle);

/// Frees a pack handle. Returns 0 or STRASSEN_INFO_BAD_HANDLE. Every
/// submission that carries the handle must be waited before freeing it --
/// the queue borrows the image, it never copies it.
int strassen_dgefmm_pack_free(std::int64_t pack_handle);

/// strassen_dgefmm_submit with a prepacked op(B): identical semantics plus
/// the pack consult on the serving hot path (shapes the cutoff sends
/// straight to GEMM). Returns STRASSEN_INFO_BAD_HANDLE when `pack_handle`
/// is unknown; `pack_handle` 0 means "no prepack" and behaves exactly like
/// strassen_dgefmm_submit.
[[nodiscard]] int strassen_dgefmm_submit_packed(
    char transa, char transb, std::int64_t m, std::int64_t n, std::int64_t k,
    double alpha, const double* a, std::int64_t lda, const double* b,
    std::int64_t ldb, double beta, double* c, std::int64_t ldc,
    std::int64_t pack_handle, std::int64_t deadline_ms, std::int64_t* handle);

/// Float twins of the prepack surface, stamped by the float kernel.
[[nodiscard]] int strassen_sgefmm_pack_b_size(char transb, std::int64_t k,
                                              std::int64_t n,
                                              std::int64_t* elems);
[[nodiscard]] int strassen_sgefmm_pack_b(char transb, std::int64_t k,
                                         std::int64_t n, const float* b,
                                         std::int64_t ldb,
                                         std::int64_t* pack_handle);
int strassen_sgefmm_pack_free(std::int64_t pack_handle);
[[nodiscard]] int strassen_sgefmm_submit_packed(
    char transa, char transb, std::int64_t m, std::int64_t n, std::int64_t k,
    float alpha, const float* a, std::int64_t lda, const float* b,
    std::int64_t ldb, float beta, float* c, std::int64_t ldc,
    std::int64_t pack_handle, std::int64_t deadline_ms, std::int64_t* handle);

/// Float twins of the serving entry points, backed by the float queue.
[[nodiscard]] int strassen_sgefmm_submit(char transa, char transb,
                                         std::int64_t m, std::int64_t n,
                                         std::int64_t k, float alpha,
                                         const float* a, std::int64_t lda,
                                         const float* b, std::int64_t ldb,
                                         float beta, float* c,
                                         std::int64_t ldc,
                                         std::int64_t deadline_ms,
                                         std::int64_t* handle);
[[nodiscard]] int strassen_sgefmm_wait(std::int64_t handle);
int strassen_sgefmm_cancel(std::int64_t handle);

/// Drains and destroys the process-wide serving queues: every accepted
/// request reaches its terminal state, the serving threads join, and all
/// unwaited handles are invalidated. A later submit lazily rebuilds the
/// queues (re-reading the environment knobs). Never throws.
void strassen_serve_shutdown(void);

}  // extern "C"
