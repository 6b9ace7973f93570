# The shared bench flags are honoured or refused, never silently ignored:
#   1. bench_ablation --seeds=2 --out=... writes a sweep with 2 runs per cell;
#   2. bench_incast refuses --recovery with exit 2;
#   3. an unwritable --out exits nonzero (sweep writer and report writer);
#   4. a malformed number is refused with exit 2, not read as a default;
#   5. the usage message lists a bench's own flags and leaves out the shared
#      flags it refuses.
# Run as: cmake -DBENCH_DIR=<bench binaries> -DWORK_DIR=<scratch dir> -P this

function(expect_exit want)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT "${rc}" STREQUAL "${want}")
    message(FATAL_ERROR "exit ${rc}, want ${want}: ${ARGN}\n${err}")
  endif()
endfunction()

# Runs a command that must exit 2 with a usage message; `want` must appear
# in its stderr and `unwanted` must not.
function(expect_usage want unwanted)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT "${rc}" STREQUAL "2")
    message(FATAL_ERROR "exit ${rc}, want 2: ${ARGN}\n${err}")
  endif()
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "usage lacks '${want}': ${ARGN}\n${err}")
  endif()
  string(FIND "${err}" "${unwanted}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "usage lists refused '${unwanted}': ${ARGN}\n${err}")
  endif()
endfunction()

function(expect_failure)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if("${rc}" STREQUAL "0")
    message(FATAL_ERROR "exit 0, want nonzero: ${ARGN}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

expect_exit(0 ${BENCH_DIR}/bench_ablation --duration-ms=2 --seeds=2 --jobs=2
            --out=${WORK_DIR}/abl)
file(READ ${WORK_DIR}/abl.json doc)
string(JSON cells LENGTH "${doc}" cells)
if(NOT cells EQUAL 6)
  message(FATAL_ERROR "abl.json: ${cells} cells, want the 6 ablation rows")
endif()
math(EXPR last "${cells} - 1")
foreach(i RANGE ${last})
  string(JSON runs LENGTH "${doc}" cells ${i} runs)
  if(NOT runs EQUAL 2)
    message(FATAL_ERROR "abl.json cell ${i}: ${runs} runs, want 2")
  endif()
endforeach()

expect_exit(2 ${BENCH_DIR}/bench_incast 1 --recovery=agent)

expect_failure(${BENCH_DIR}/bench_ablation --duration-ms=2
               --out=/nonexistent/x)
expect_failure(${BENCH_DIR}/bench_incast 1 --out=/nonexistent/x)

expect_exit(2 ${BENCH_DIR}/bench_ablation --seeds=x)
expect_exit(2 ${BENCH_DIR}/bench_ablation --duration-ms=2ms)

expect_usage("--lifecycles=" "--require-phases" ${BENCH_DIR}/bench_scaleout --bogus)
expect_usage("--duration-ms=" "--out=" ${BENCH_DIR}/bench_fairness --bogus)
expect_usage("--qdisc=" "--recovery=" ${BENCH_DIR}/bench_incast --bogus)
