# bench_micro --benchmark_color=false must keep ANSI escapes out of its
# console table, so piped output stays greppable ('^BM_').
# Run as: cmake -DBENCH_MICRO=<bench_micro binary> -P this

execute_process(
  COMMAND ${BENCH_MICRO} --benchmark_filter=BM_EventQueueScheduleRun/1024
          --benchmark_min_time=0.01 --benchmark_color=false
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_micro exited ${rc}\n${err}")
endif()
string(ASCII 27 esc)
string(FIND "${out}" "${esc}" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "ESC byte in --benchmark_color=false output:\n${out}")
endif()
if(NOT out MATCHES "(^|\n)BM_EventQueueScheduleRun/1024 ")
  message(FATAL_ERROR "no line starts with the benchmark name:\n${out}")
endif()
