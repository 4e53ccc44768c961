# Script behind the perfbench_smoke CTest: runs the repository benchmark
# binary (BENCH) on every workload in miniature and fails unless each run
# exits 0 and its result line (the last line of stdout) reports
# "correct": true and no failed operations.
foreach(workload steady_lan churn_control failover)
  execute_process(
    COMMAND ${BENCH} --workload ${workload} --seed 1 --seconds 1
            --scale mini --setups 1
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perfbench_smoke: ${workload} exited ${rc}\n${err}")
  endif()
  string(STRIP "${out}" out)
  string(FIND "${out}" "\n" cut REVERSE)
  math(EXPR cut "${cut} + 1")
  string(SUBSTRING "${out}" ${cut} -1 result)
  if(NOT result MATCHES "\"correct\":true")
    message(FATAL_ERROR "perfbench_smoke: ${workload} is not correct:\n${result}")
  endif()
  if(NOT result MATCHES "\"failed\":0[,}]")
    message(FATAL_ERROR "perfbench_smoke: ${workload} failed operations:\n${result}")
  endif()
  message(STATUS "perfbench_smoke: ${workload} ok")
endforeach()
