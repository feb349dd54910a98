# Runs `oppsla eval` twice per attack against the same cached victim — once
# with the query engine at its defaults (memoizing cache, speculative
# prefetch through batched forwards) and once degenerate (--no-cache: no
# memo, no prefetch, i.e. the pre-engine serial path) — and compares the
# per-image --runs-out JSONL byte for byte. This is the engine's acceptance
# contract: batching and caching are pure plumbing optimizations; they
# must not change a single logical answer, query count, or chosen
# perturbation.
#
# Every attack that carries its own prefetch simulator runs: the sketch
# (oppsla), Sparse-RS, SuOPA and RandomPairSearch. The budget of 1024
# clears SuOPA's 400-candidate population, so its generation windows run
# as well as its initialization windows.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_eval ATTACK OUT_FILE)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env OPPSLA_CACHE_DIR=${WORK_DIR}/cache
      ${CLI} eval --scale smoke --attack ${ATTACK} --budget 1024
      --runs-out ${OUT_FILE} ${ARGN}
    OUTPUT_VARIABLE OUT
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
      "eval --attack ${ATTACK} ${ARGN} failed with ${RC}: ${OUT}")
  endif()
endfunction()

foreach(ATTACK oppsla sparse-rs suopa random)
  set(RUNS_ENGINE ${WORK_DIR}/runs_engine_${ATTACK}.jsonl)
  set(RUNS_SERIAL ${WORK_DIR}/runs_serial_${ATTACK}.jsonl)
  run_eval(${ATTACK} ${RUNS_ENGINE})
  run_eval(${ATTACK} ${RUNS_SERIAL} --no-cache)

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${RUNS_ENGINE} ${RUNS_SERIAL}
    RESULT_VARIABLE DIFF)
  if(NOT DIFF EQUAL 0)
    message(FATAL_ERROR
      "${ATTACK}: per-image run logs differ between engine defaults and "
      "--no-cache; the query engine must be byte-identical to the serial "
      "path (compare ${RUNS_ENGINE} with ${RUNS_SERIAL})")
  endif()

  file(STRINGS ${RUNS_ENGINE} LINES)
  list(LENGTH LINES NUM_LINES)
  if(NUM_LINES EQUAL 0)
    message(FATAL_ERROR
      "${ATTACK}: runs JSONL is empty — the comparison proved nothing")
  endif()
endforeach()
