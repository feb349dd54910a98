# Runs `oppsla eval` twice against the same cached victim — once with the
# default fast kernels (packed register-blocked SGEMM with the fused
# bias/BatchNorm/ReLU epilogue) and once with --naive-kernels (the scalar
# reference loops) — and compares the per-image --runs-out JSONL byte for
# byte. This is the kernel determinism contract of DESIGN.md §12: both
# paths compute the identical fma reduction chain per output element, so
# swapping kernels must not change a single logical answer, query count,
# or chosen perturbation.
#
# Pass -DEXTRA_ARGS="--threads 4 --engine-threads 2" (etc.) to run both
# sweeps under extra flags — the registered _mt variant uses this to cover
# the threaded sweep and parallel engine chunks with the same byte-identity
# bar.
file(MAKE_DIRECTORY ${WORK_DIR})
set(RUNS_FAST ${WORK_DIR}/runs_fast.jsonl)
set(RUNS_NAIVE ${WORK_DIR}/runs_naive.jsonl)
if(NOT DEFINED EXTRA_ARGS)
  set(EXTRA_ARGS "")
endif()
separate_arguments(EXTRA_LIST UNIX_COMMAND "${EXTRA_ARGS}")

# Default fast kernels.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env OPPSLA_CACHE_DIR=${WORK_DIR}/cache
    ${CLI} eval --scale smoke --attack sparse-rs --budget 256
    ${EXTRA_LIST} --runs-out ${RUNS_FAST}
  OUTPUT_VARIABLE OUT
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "eval with fast kernels failed with ${RC}: ${OUT}")
endif()

# Scalar reference kernels.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env OPPSLA_CACHE_DIR=${WORK_DIR}/cache
    ${CLI} eval --scale smoke --attack sparse-rs --budget 256
    ${EXTRA_LIST} --naive-kernels --runs-out ${RUNS_NAIVE}
  OUTPUT_VARIABLE OUT
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "eval --naive-kernels failed with ${RC}: ${OUT}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${RUNS_FAST} ${RUNS_NAIVE}
  RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR
    "per-image run logs differ between the fast kernels and "
    "--naive-kernels; the packed GEMM must be bit-identical to the scalar "
    "reference path (compare ${RUNS_FAST} with ${RUNS_NAIVE})")
endif()

file(STRINGS ${RUNS_FAST} LINES)
list(LENGTH LINES NUM_LINES)
if(NUM_LINES EQUAL 0)
  message(FATAL_ERROR "runs JSONL is empty — the comparison proved nothing")
endif()
