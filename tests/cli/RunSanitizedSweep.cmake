# Exercises every caller of the clone-per-worker fan-out
# (ThreadPool::forEach) end to end; registered only when the build was
# configured with -DOPPSLA_SANITIZE=thread|address|undefined, so any data
# race (or memory error, or undefined behaviour) in the worker pool, the
# classifier clones, or the per-run attack state fails the test via the
# sanitizer runtime.
#
#   1. A Sparse-RS sweep over 4 threads: the attack sweep.
#   2. An OPPSLA eval over 4 threads with a 2-thread engine: the program
#      sweep, the engine's forward chunks and the synthesis scorers.
#   3. An island synthesis over 4 threads: the island pool with two
#      scorers per island. Class 1, because the smoke victim misclassifies
#      all four class-0 training images, so a class-0 search scores no
#      attack at all.
# Inputs: CLI, WORK_DIR.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_sanitized NAME EXPECT)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env OPPSLA_CACHE_DIR=${WORK_DIR}/cache
      ${CLI} ${ARGN}
    OUTPUT_VARIABLE OUT
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "sanitized ${NAME} failed with ${RC}: ${OUT}")
  endif()
  if(NOT OUT MATCHES "${EXPECT}")
    message(FATAL_ERROR "${NAME} printed no '${EXPECT}': ${OUT}")
  endif()
endfunction()

run_sanitized("sparse-rs eval" "success rate"
  eval --scale smoke --attack sparse-rs --budget 256 --threads 4)
run_sanitized("oppsla eval" "success rate"
  eval --scale smoke --attack oppsla --threads 4 --engine-threads 2
  --no-program-store)
run_sanitized("island synthesis" "saved to"
  synthesize --scale smoke --class 1 --synth-islands 2 --threads 4
  --no-program-store --out ${WORK_DIR}/program.txt)
