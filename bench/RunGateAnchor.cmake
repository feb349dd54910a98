# The live regression gate against the checked-in baselines: runs one
# fast, fully deterministic bench at smoke scale and feeds its artifact to
# `oppsla_bench gate`. The manifest exact-matches the attack-side metrics
# (attack outcomes, synthesis queries — pure functions of the seeds) and
# treats wall-clock metrics as info, so this test is immune to CPU load
# while still catching any behavior drift against the committed anchor.
#
# Inputs: BENCH (bench binary), GATE (oppsla_bench binary), NAME (bench
# name), BASELINES (bench/baselines source dir), WORK_DIR.
file(MAKE_DIRECTORY ${WORK_DIR})
set(OUT_JSON ${WORK_DIR}/BENCH_${NAME}.json)
file(REMOVE ${OUT_JSON})
# Synthesize cold on every run: a program store left by an earlier run
# would rehydrate the programs and drop the exact-gated synth.* metrics.
# Trained victims stay cached.
set(CACHE_DIR ${WORK_DIR}/.oppsla-cache)
file(REMOVE_RECURSE ${CACHE_DIR}/programs)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env OPPSLA_BENCH_SCALE=smoke
    OPPSLA_CACHE_DIR=${CACHE_DIR}
    ${BENCH} --json-out ${OUT_JSON}
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "${NAME} failed with ${RC}: ${OUT}\n${ERR}")
endif()

execute_process(
  COMMAND ${GATE} gate --baselines ${BASELINES} ${OUT_JSON}
  OUTPUT_VARIABLE GOUT
  ERROR_VARIABLE GERR
  RESULT_VARIABLE GRC)
if(NOT GRC EQUAL 0)
  message(FATAL_ERROR
    "gate vs checked-in baselines failed (${GRC}):\n${GOUT}\n${GERR}")
endif()
if(NOT GOUT MATCHES "gate: PASS")
  message(FATAL_ERROR "gate did not report PASS:\n${GOUT}")
endif()
message(STATUS "gate anchor '${NAME}' OK")
