# Exercises the parallel evaluation sweep end to end; registered only when
# the build was configured with -DOPPSLA_SANITIZE=thread|address|undefined, so any
# data race (or memory error) in the worker pool, the classifier clones, or
# the per-run attack state fails the test via the sanitizer runtime.
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env OPPSLA_CACHE_DIR=${WORK_DIR}/cache
    ${CLI} eval --scale smoke --attack sparse-rs --budget 256 --threads 4
  OUTPUT_VARIABLE OUT
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "sanitized parallel eval failed with ${RC}: ${OUT}")
endif()
if(NOT OUT MATCHES "success rate")
  message(FATAL_ERROR "eval produced no summary: ${OUT}")
endif()
