# Runs `oppsla synthesize --synth-islands 4` twice against the same cached
# victim — once with 4 worker threads and once with 1 — and byte-compares
# the saved programs. This is the island determinism contract of
# DESIGN.md §15: the synthesized program is a pure function of
# (seed, islands, exchange interval), never of the thread count. Both
# searches run live (--no-program-store), then a store-backed pair checks
# that a warm store rehydrates the same bytes the search produced.
#
# Class 1 of the smoke victim has training images the candidates can
# attack, so the islands really search; a class whose images are all
# misclassified already makes every run return the fixed program, which
# no threading bug can change. Any run that logs "synthesis saw no
# successful training attack" therefore fails the test.
#
# The 4-thread search also writes its JSONL trace and metrics: most of
# its queries are answered by the training-image memos, and each must
# still emit one `query` event, so the trace holds exactly synth.queries
# of them.
# Inputs: CLI, WORK_DIR.
file(MAKE_DIRECTORY ${WORK_DIR})
set(COMMON synthesize --scale smoke --class 1 --synth-islands 4
  --exchange-interval 2)
set(NO_SEARCH "synthesis saw no successful training attack")
set(TRACE ${WORK_DIR}/trace_t4.jsonl)
set(METRICS ${WORK_DIR}/metrics_t4.json)
file(REMOVE ${TRACE} ${METRICS})

# Live search at two thread counts.
foreach(T 4 1)
  set(TELEMETRY)
  if(T EQUAL 4)
    set(TELEMETRY --trace-out ${TRACE} --metrics-out ${METRICS})
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env OPPSLA_CACHE_DIR=${WORK_DIR}/cache
      ${CLI} ${COMMON} --threads ${T} --no-program-store
      --out ${WORK_DIR}/prog_t${T}.txt ${TELEMETRY}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
      "synthesize --threads ${T} failed with ${RC}: ${OUT}${ERR}")
  endif()
  string(FIND "${ERR}" "${NO_SEARCH}" AT)
  if(NOT AT EQUAL -1)
    message(FATAL_ERROR
      "synthesize --threads ${T} attacked no training image, so the "
      "comparison cannot see the islands: ${ERR}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/prog_t4.txt ${WORK_DIR}/prog_t1.txt
  RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR
    "island synthesis diverged across thread counts; the program must be "
    "a pure function of (seed, islands, exchange interval) (compare "
    "${WORK_DIR}/prog_t4.txt with ${WORK_DIR}/prog_t1.txt)")
endif()

# Trace parity: one `query` event per counted synthesis query.
file(STRINGS ${TRACE} QUERY_EVENTS REGEX "\"type\":\"query\"")
list(LENGTH QUERY_EVENTS NUM_QUERY_EVENTS)
file(READ ${METRICS} MJSON)
string(JSON SYNTH_QUERIES GET "${MJSON}" counters synth.queries)
if(NUM_QUERY_EVENTS EQUAL 0 OR
   NOT NUM_QUERY_EVENTS EQUAL SYNTH_QUERIES)
  message(FATAL_ERROR
    "the trace holds ${NUM_QUERY_EVENTS} query events but synth.queries is "
    "${SYNTH_QUERIES} (see ${TRACE} and ${METRICS})")
endif()

# Store-backed pair: a cold run persists the portfolio, the warm rerun
# must rehydrate (not re-search) and still save identical bytes.
foreach(PASS cold warm)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env OPPSLA_CACHE_DIR=${WORK_DIR}/cache
      ${CLI} ${COMMON} --threads 1
      --program-store ${WORK_DIR}/store
      --out ${WORK_DIR}/prog_${PASS}.txt
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
      "synthesize (${PASS}) failed with ${RC}: ${OUT}${ERR}")
  endif()
  string(FIND "${ERR}" "${NO_SEARCH}" AT)
  if(NOT AT EQUAL -1)
    message(FATAL_ERROR
      "synthesize (${PASS}) attacked no training image: ${ERR}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/prog_cold.txt ${WORK_DIR}/prog_warm.txt
  RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR
    "warm program-store rehydration differs from the cold search (compare "
    "${WORK_DIR}/prog_cold.txt with ${WORK_DIR}/prog_warm.txt)")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/prog_cold.txt ${WORK_DIR}/prog_t1.txt
  RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR
    "store-backed synthesis differs from the live search under the same "
    "config")
endif()

file(GLOB ENTRIES ${WORK_DIR}/store/*.opwf)
list(LENGTH ENTRIES NUM_ENTRIES)
if(NUM_ENTRIES EQUAL 0)
  message(FATAL_ERROR "no .opwf entry appeared in ${WORK_DIR}/store")
endif()
